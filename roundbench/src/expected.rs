//! Recorded outcomes of one episode per (workload, seed).
//!
//! An episode is fully determined by its workload and seed, so its total
//! served and unserved stripe requests and the simulator's final state
//! signature are fixed numbers. A run whose episode disagrees has changed
//! the schedule: that is a correctness failure, never a performance result.
//! Regenerate a row with `roundbench --workload <w> --seed <s> --record`,
//! and only for a change that is meant to alter behaviour.

/// What the correctness gate compares for one episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Stripe requests served over the whole episode.
    pub served: u64,
    /// Stripe requests left unserved over the whole episode.
    pub unserved: u64,
    /// `Simulator::state_signature()` after the last round.
    pub signature: u64,
}

/// `(workload, seed, served, unserved, signature)` rows for seeds 0–20
/// (seed 1 is the default).
const RECORDED: &[(&str, u64, u64, u64, u64)] = &[
    ("steady-16k", 0, 8599383, 0, 0x9cf4781394682258),
    ("steady-16k", 1, 8599483, 0, 0xeb52cfd1a39e97eb),
    ("steady-16k", 2, 8599167, 0, 0x25e4bec2baaef106),
    ("steady-16k", 3, 8599673, 0, 0xfff662e8b51061d4),
    ("steady-16k", 4, 8599345, 0, 0x6a797a9a56d4e1fc),
    ("steady-16k", 5, 8599817, 0, 0xb87c72edf341f290),
    ("steady-16k", 6, 8599807, 0, 0x328f949ee596d5b6),
    ("steady-16k", 7, 8600027, 0, 0xe18b8349364a8b8b),
    ("steady-16k", 8, 8599867, 0, 0x62e29dfc0b4e98fa),
    ("steady-16k", 9, 8599890, 0, 0x22e7b4d4235f060b),
    ("steady-16k", 10, 8599704, 0, 0x2b7ce5ce90184141),
    ("steady-16k", 11, 8599532, 0, 0x2f5fbd43a8e33e38),
    ("steady-16k", 12, 8599676, 0, 0xa0151fc5d24aa773),
    ("steady-16k", 13, 8599438, 0, 0xbdaedfc991a3e69a),
    ("steady-16k", 14, 8599317, 0, 0x915b10f6007eb592),
    ("steady-16k", 15, 8599363, 0, 0x5e720bb8a5b0ff63),
    ("steady-16k", 16, 8599222, 0, 0x63adcc5ef6973cdf),
    ("steady-16k", 17, 8599898, 0, 0x1bae4834217061b6),
    ("steady-16k", 18, 8599280, 0, 0x3321b36b7a08b781),
    ("steady-16k", 19, 8599579, 0, 0x0099dc7e1701fa89),
    ("steady-16k", 20, 8599955, 0, 0x2c19313a280cc744),
    ("flash-1k", 0, 203997, 0, 0xa7baf0064824b496),
    ("flash-1k", 1, 204069, 0, 0xb71e275b7c2488ff),
    ("flash-1k", 2, 204003, 0, 0xc8cc6625c72b1859),
    ("flash-1k", 3, 204016, 0, 0xaba6345517294296),
    ("flash-1k", 4, 204154, 0, 0xef870b8509d6a26e),
    ("flash-1k", 5, 204056, 0, 0x9cc1585d88800d63),
    ("flash-1k", 6, 203945, 0, 0x9c8d8d33b46b69d4),
    ("flash-1k", 7, 204126, 0, 0x8a1d4290266868a0),
    ("flash-1k", 8, 204053, 0, 0x98abfb462ec49d77),
    ("flash-1k", 9, 203846, 0, 0x6767337d68a7eb0f),
    ("flash-1k", 10, 203946, 0, 0xb4acbd56caf548d7),
    ("flash-1k", 11, 203993, 0, 0x3976ba56a9e39bb2),
    ("flash-1k", 12, 203753, 0, 0xb38fe5adba299ad1),
    ("flash-1k", 13, 204032, 0, 0xd73ca357edfcdfb0),
    ("flash-1k", 14, 204085, 0, 0x663934ff3c78600e),
    ("flash-1k", 15, 204094, 0, 0x53fa9fd72f7e2a56),
    ("flash-1k", 16, 204045, 0, 0x82a43b9af845029c),
    ("flash-1k", 17, 203855, 0, 0x175f35c81b327e4b),
    ("flash-1k", 18, 203873, 0, 0x90bf2461182dd5f9),
    ("flash-1k", 19, 204050, 0, 0xb2c63048df77642d),
    ("flash-1k", 20, 204035, 0, 0x3519f91782ec81b8),
    ("churn-faults-4k", 0, 726779, 1322, 0x32086d0fc05ac2a3),
    ("churn-faults-4k", 1, 721573, 1367, 0x86fffc6d133460be),
    ("churn-faults-4k", 2, 710603, 1512, 0x12042df2dab5aea9),
    ("churn-faults-4k", 3, 702893, 1356, 0xe514b47903c29b4e),
    ("churn-faults-4k", 4, 713362, 1347, 0xf071b430a8377e97),
    ("churn-faults-4k", 5, 717636, 1516, 0x7eda9e44fbb37036),
    ("churn-faults-4k", 6, 711257, 1196, 0x9f13874e1960a89b),
    ("churn-faults-4k", 7, 711915, 1216, 0x0b30fbceaa22bf93),
    ("churn-faults-4k", 8, 721194, 1345, 0x001738bd58c66437),
    ("churn-faults-4k", 9, 719024, 1377, 0x2683a177c8cfa847),
    ("churn-faults-4k", 10, 730884, 1269, 0x79d7ad04236e70e7),
    ("churn-faults-4k", 11, 721274, 1287, 0xc0522d02e2863a6f),
    ("churn-faults-4k", 12, 720567, 1382, 0x94da43fb5081c764),
    ("churn-faults-4k", 13, 702240, 1343, 0xf76f9904b7c6160b),
    ("churn-faults-4k", 14, 725952, 1641, 0x4ea4835cadc63dcc),
    ("churn-faults-4k", 15, 726220, 1083, 0x454c235686ac6c63),
    ("churn-faults-4k", 16, 707085, 1218, 0xc1c55b2bc94cabb7),
    ("churn-faults-4k", 17, 696520, 1389, 0x86aeda310d44b16e),
    ("churn-faults-4k", 18, 699741, 1283, 0xd100a44852d5adab),
    ("churn-faults-4k", 19, 715976, 1230, 0x7db1e89ad1d57f8b),
    ("churn-faults-4k", 20, 730235, 1351, 0xd61dea89e103ae8f),
];

/// The recorded outcome for `(workload, seed)`, if there is one.
pub fn recorded(workload: &str, seed: u64) -> Option<Outcome> {
    RECORDED
        .iter()
        .find(|row| row.0 == workload && row.1 == seed)
        .map(|&(_, _, served, unserved, signature)| Outcome {
            served,
            unserved,
            signature,
        })
}
