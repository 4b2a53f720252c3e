//! Fingerprint pins for the dataset generators, at their own layer.
//!
//! The graph apps (bfs, sssp, pr, wcc) and the Zipf-driven apps (ll,
//! ht, tree, spmv) are otherwise pinned only through whole-run
//! checksums and event counts. These digests hash the generators'
//! output directly, so a generator rewrite that changes one edge or one
//! draw fails here with the exact input it changed. A rewrite meant to
//! keep the output must leave every digest as it is; one that changes
//! the output on purpose re-records them together with the goldens.

use ndpb_dram::{Geometry, UnitId};
use ndpb_sim::{Fnv1a64, SimRng};
use ndpb_tasks::ExecCtx;
use ndpb_workloads::{build_app, Graph, Scale, Zipfian};

/// Table I's seed (`SystemConfig::table1().seed`).
const TABLE1_SEED: u64 = 0x5EED;
/// The benchmark's held-out seed.
const HELD_OUT_SEED: u64 = 7919;

/// FNV-1a over the CSR `offsets` (`u64` each, starting at 0) and then
/// the CSR `targets` (`u32` each), little-endian.
fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv1a64::new();
    let mut end = 0u64;
    h.write_u64(end);
    for v in 0..g.vertices() as u32 {
        end += g.degree(v) as u64;
        h.write_u64(end);
    }
    for v in 0..g.vertices() as u32 {
        for &t in g.neighbors(v) {
            h.write(&t.to_le_bytes());
        }
    }
    h.finish()
}

/// FNV-1a over 10,000 draws of `Zipfian::new(n, theta)` from a
/// `SimRng` seeded with Table I's seed.
fn zipf_digest(n: u64, theta: f64) -> u64 {
    let z = Zipfian::new(n, theta);
    let mut rng = SimRng::new(TABLE1_SEED);
    let mut h = Fnv1a64::new();
    for _ in 0..10_000 {
        h.write_u64(z.sample(&mut rng));
    }
    h.finish()
}

#[test]
fn generators_match_recorded_fingerprints() {
    // (scale, edges) of every `rmat_with_locality(.., 0.4, seed)` call
    // the graph apps make on Table I geometry, and the digest at each
    // seed.
    let graphs: [(&str, u32, usize, [u64; 2]); 6] = [
        (
            "bfs tiny",
            11,
            16_384,
            [0xb162_90ef_6276_2705, 0x0c4e_1d01_7f1d_5ba2],
        ),
        (
            "sssp/wcc tiny",
            11,
            8_192,
            [0x97d9_6ab2_098b_a51a, 0xf865_c359_817b_ed12],
        ),
        (
            "pr tiny",
            10,
            8_192,
            [0x0325_db37_9a2c_fe7f, 0x2e00_ac54_2aa3_217c],
        ),
        (
            "bfs small",
            14,
            131_072,
            [0x862d_718b_0ccf_9cd2, 0x1c02_adb7_6827_a889],
        ),
        (
            "sssp/wcc small",
            14,
            65_536,
            [0x4aff_b538_a1ad_0bb1, 0xa2f6_f857_95fe_9ac4],
        ),
        (
            "pr small",
            13,
            65_536,
            [0x21bb_539b_989d_45ea, 0x8208_b604_1706_c3ef],
        ),
    ];
    // (n, theta) of every `Zipfian` the query apps and spmv construct
    // at Tiny on Table I geometry.
    let zipfs: [(&str, u64, f64, u64); 5] = [
        ("ll lists", 4_096, 0.55, 0x0e9d_19c6_ae9e_8478),
        ("ht keys", 32_768, 0.55, 0x53ea_6654_a4d2_ab7d),
        ("tree trees", 1_024, 0.65, 0xc778_89fa_13a4_1fa5),
        ("tree nodes", 1_023, 0.4, 0xcf6d_417c_4103_c229),
        ("spmv rows", 2_048, 0.95, 0xc037_20f1_0f47_56e2),
    ];
    let mut wrong = Vec::new();
    for (name, scale, edges, want) in graphs {
        for (seed, want) in [TABLE1_SEED, HELD_OUT_SEED].into_iter().zip(want) {
            let got = graph_digest(&Graph::rmat_with_locality(scale, edges, 0.4, seed));
            if got != want {
                wrong.push(format!(
                    "{name} rmat_with_locality({scale}, {edges}, 0.4, {seed}): {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    // The micro-benchmark's graph (`micro/rmat_scale12`).
    let got = graph_digest(&Graph::rmat(12, 32_768, 5));
    let want = 0x6237_d067_ca67_87bd;
    if got != want {
        wrong.push(format!(
            "rmat(12, 32768, 5): {got:#018x}, pinned {want:#018x}"
        ));
    }
    for (name, n, theta, want) in zipfs {
        let got = zipf_digest(n, theta);
        if got != want {
            wrong.push(format!(
                "{name} Zipfian({n}, {theta}): {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "generator output moved:\n{}",
        wrong.join("\n")
    );
}

/// FNV-1a over the data address of every task a serial traversal of
/// `tree` on Table I geometry creates: the initial tasks in order, then
/// each task's children as it executes, last created first. Every query
/// walks from its root to its target, so this reads every placement
/// slot a run reads, and the query stream drawn after the shuffle.
/// Returns the digest and the number of tasks.
fn tree_digest(scale: Scale, seed: u64) -> (u64, u64) {
    let mut app = build_app("tree", &Geometry::table1(), scale, seed);
    let mut h = Fnv1a64::new();
    let mut frontier = app.initial_tasks();
    for t in &frontier {
        h.write_u64(t.data.0);
    }
    let mut tasks = frontier.len() as u64;
    while let Some(t) = frontier.pop() {
        let mut ctx = ExecCtx::new(UnitId(0));
        app.execute(&t, &mut ctx);
        for child in ctx.into_spawned() {
            h.write_u64(child.data.0);
            tasks += 1;
            frontier.push(child);
        }
    }
    (h.finish(), tasks)
}

#[test]
fn tree_placement_matches_recorded_fingerprints() {
    // The digest at each seed, recorded before the placement table was
    // stored in chunks.
    let pins: [(Scale, [u64; 2]); 2] = [
        (Scale::Tiny, [0x2c21_c91f_b2c9_6fce, 0xa9ec_d34e_0536_2e36]),
        (Scale::Small, [0x7c82_f169_8c20_17be, 0x60e1_d66f_e94d_daed]),
    ];
    let mut wrong = Vec::new();
    for (scale, want) in pins {
        for (seed, want) in [TABLE1_SEED, HELD_OUT_SEED].into_iter().zip(want) {
            let (got, tasks) = tree_digest(scale, seed);
            if got != want {
                wrong.push(format!(
                    "tree {scale:?} seed {seed} ({tasks} tasks): {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "tree placement moved:\n{}",
        wrong.join("\n")
    );
}
