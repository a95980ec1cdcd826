//! The three workloads and their request generation.
//!
//! Every request of a run is a pure function of the workload, the workload
//! seed and the smoke flag: the networks come from the fixed-seed stand-ins
//! of `tie_bench::workloads`, and the workload seed only picks the request
//! seeds (partition, initial mapping and TIMER seed) and the order in which
//! each pass sends the requests.

use tie_bench::workloads::{paper_networks, Scale};
use tie_graph::Graph;
use tie_mapd::protocol::{GraphSource, MapRequest};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// PGPgiantcompo at medium scale on grid8x8: TIMER-dominated, reject-heavy.
    MediumGrid8x8,
    /// Three networks on three 1024-PE topologies: partition-, evaluate- and
    /// recognition-heavy, accept-heavy.
    Wide1024Pe,
    /// A live `mapd` socket with two closed-loop clients over a c1–c4 mix.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MediumGrid8x8,
        Workload::Wide1024Pe,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MediumGrid8x8 => "medium-grid8x8",
            Workload::Wide1024Pe => "wide-1024pe",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The shape of a workload: which requests it sends and how.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Stand-in networks (Table 1 names) and the scale of each.
    pub networks: Vec<(&'static str, Scale)>,
    /// Topology descriptors as `mapd` parses them.
    pub topologies: Vec<&'static str>,
    /// Initial-mapping cases.
    pub cases: Vec<&'static str>,
    /// TIMER hierarchies per request.
    pub nh: usize,
    /// Distinct request seeds per (network, topology, case) combination.
    pub seeds_per_combo: usize,
    /// Closed-loop client connections; 0 means in-process, one caller.
    pub clients: usize,
    /// In-process only: a fresh `Service` (cold topology cache) every pass.
    pub fresh_service_per_pass: bool,
}

impl Spec {
    /// The spec of `workload`; `smoke` shrinks it to the smallest run that
    /// still goes through every stage.
    pub fn new(workload: Workload, smoke: bool) -> Spec {
        match (workload, smoke) {
            (Workload::MediumGrid8x8, false) => Spec {
                networks: vec![("PGPgiantcompo", Scale::Medium)],
                topologies: vec!["grid8x8"],
                cases: vec!["c2"],
                nh: 40,
                seeds_per_combo: 6,
                clients: 0,
                fresh_service_per_pass: false,
            },
            (Workload::MediumGrid8x8, true) => Spec {
                networks: vec![("PGPgiantcompo", Scale::Tiny)],
                topologies: vec!["grid8x8"],
                cases: vec!["c2"],
                nh: 2,
                seeds_per_combo: 2,
                clients: 0,
                fresh_service_per_pass: false,
            },
            (Workload::Wide1024Pe, false) => Spec {
                networks: vec![
                    ("as-skitter", Scale::Tiny),
                    ("soc-Slashdot0902", Scale::Small),
                    ("coAuthorsCiteseer", Scale::Small),
                ],
                topologies: vec!["hypercube10", "torus32x32", "grid8x8x16"],
                cases: vec!["c2"],
                nh: 10,
                seeds_per_combo: 1,
                clients: 0,
                fresh_service_per_pass: true,
            },
            (Workload::Wide1024Pe, true) => Spec {
                networks: vec![("as-skitter", Scale::Tiny)],
                topologies: vec!["hypercube10", "grid8x8x16"],
                cases: vec!["c2"],
                nh: 1,
                seeds_per_combo: 1,
                clients: 0,
                fresh_service_per_pass: true,
            },
            (Workload::ServeMix, false) => Spec {
                networks: vec![
                    ("p2p-Gnutella", Scale::Tiny),
                    ("email-EuAll", Scale::Tiny),
                    ("soc-Slashdot0902", Scale::Tiny),
                ],
                topologies: vec!["grid4x4", "torus4x4x4", "hypercube6", "grid8x8"],
                cases: vec!["c1", "c2", "c3", "c4"],
                nh: 10,
                seeds_per_combo: 2,
                clients: 2,
                fresh_service_per_pass: false,
            },
            (Workload::ServeMix, true) => Spec {
                networks: vec![("p2p-Gnutella", Scale::Tiny)],
                topologies: vec!["grid4x4", "hypercube6"],
                cases: vec!["c1", "c3"],
                nh: 2,
                seeds_per_combo: 1,
                clients: 2,
                fresh_service_per_pass: false,
            },
        }
    }

    /// Whether the requests go through a `mapd` socket.
    pub fn served(&self) -> bool {
        self.clients > 0
    }
}

/// SplitMix64: a tiny, fully specified generator, so request generation
/// depends on nothing but this file and the seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Builds the stand-in network `name` at `scale`.
///
/// # Panics
/// If `name` is not in the Table 1 catalogue (a bug in a [`Spec`]).
pub fn network(name: &str, scale: Scale) -> Graph {
    paper_networks()
        .into_iter()
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("unknown network {name:?}"))
        .build(scale)
}

/// The distinct requests of a workload, in generation order: networks ×
/// topologies × cases × request seeds. Request seeds come from `seed`;
/// everything else from `spec`. Graphs travel inline, as a client sends them.
pub fn generate(spec: &Spec, seed: u64) -> Vec<MapRequest> {
    let mut rng = SplitMix::new(seed ^ 0x5eed_5eed_5eed_5eed);
    let mut out = Vec::new();
    for &(name, scale) in &spec.networks {
        let g = network(name, scale);
        let source = GraphSource::Inline {
            num_vertices: g.num_vertices(),
            edges: g.edges().collect(),
        };
        for topology in &spec.topologies {
            for case in &spec.cases {
                for _ in 0..spec.seeds_per_combo {
                    out.push(MapRequest {
                        graph: source.clone(),
                        topology: topology.to_string(),
                        case: case.to_string(),
                        nh: spec.nh,
                        eps: 0.03,
                        // 32-bit seeds keep the wire form short and exact.
                        seed: rng.next_u64() >> 32,
                        threads: 1,
                        batch: 0,
                        deadline_ms: 0,
                    });
                }
            }
        }
    }
    out
}

/// The order in which pass `pass` sends the `n` distinct requests: a
/// Fisher–Yates shuffle seeded from the workload seed and the pass index.
pub fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ pass as u64);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let spec = Spec::new(Workload::ServeMix, true);
        let a = generate(&spec, 7);
        assert_eq!(a, generate(&spec, 7));
        let b = generate(&spec, 8);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "the seed must reach the request seeds");
        // Only the request seeds depend on the workload seed.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
            assert_eq!((&x.topology, &x.case, x.nh), (&y.topology, &y.case, y.nh));
        }
    }

    #[test]
    fn full_specs_have_the_documented_request_counts() {
        let count = |w| {
            let s = Spec::new(w, false);
            s.networks.len() * s.topologies.len() * s.cases.len() * s.seeds_per_combo
        };
        assert_eq!(count(Workload::MediumGrid8x8), 6);
        assert_eq!(count(Workload::Wide1024Pe), 9);
        assert_eq!(count(Workload::ServeMix), 96);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let o = pass_order(3, 1, 50);
        assert_eq!(o, pass_order(3, 1, 50));
        assert_ne!(o, pass_order(3, 2, 50));
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
