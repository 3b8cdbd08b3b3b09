//! Property-based laws of the DBM core.
//!
//! Zones are generated by applying random operation sequences to the
//! origin zone — exactly how the reachability engine produces them — so
//! the laws are exercised on representative matrices, not just
//! hand-picked ones. Scripts free clocks too, as the engine's activity
//! masks do, so every law also runs on zones whose freed rows carry no
//! bound — the case the live-clock kernels skip.
//!
//! The `*_matches_dense` properties pin the live-clock kernels
//! (`canonicalize`, `extrapolate_lu_plus`, `reduce`) to the dense
//! textbook algorithms kept below as test-local references.

use proptest::prelude::*;
use pte_zones::dbm::{Bound, Dbm, MinCon};

const CLOCKS: usize = 4;

/// One randomized zone operation.
#[derive(Clone, Debug)]
enum Op {
    Up,
    Reset(usize, i64),
    UpperBound(usize, i64),
    LowerBound(usize, i64),
    Free(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        Just(Op::Up),
        (1usize..=CLOCKS, 0i64..50).prop_map(|(c, v)| Op::Reset(c, v)),
        (1usize..=CLOCKS, 0i64..100).prop_map(|(c, v)| Op::UpperBound(c, v)),
        (1usize..=CLOCKS, 0i64..100).prop_map(|(c, v)| Op::LowerBound(c, v)),
        (1usize..=CLOCKS).prop_map(Op::Free),
    ];
    proptest::collection::vec(op, 0..12)
}

/// Applies one op without re-closing the matrix.
fn apply(z: &mut Dbm, op: &Op) {
    match op {
        Op::Up => z.up(),
        Op::Reset(c, v) => z.reset(*c, *v),
        Op::UpperBound(c, v) => {
            z.constrain(*c, 0, Bound::le(*v));
        }
        Op::LowerBound(c, v) => {
            z.constrain(0, *c, Bound::le(-*v));
        }
        Op::Free(c) => z.free(*c),
    }
}

/// Builds a canonical zone from an op script (may be empty).
fn zone_from(ops: &[Op]) -> Dbm {
    let mut z = Dbm::zero(CLOCKS);
    for op in ops {
        apply(&mut z, op);
        z.canonicalize();
    }
    z
}

/// Per-clock bound vectors (entry 0, the reference, is ignored).
fn bounds() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..60, CLOCKS + 1)
}

/// Reference: the dense O(d³) Floyd–Warshall over every pivot and row.
fn dense_canonicalize(z: &mut Dbm) {
    let d = z.clocks() + 1;
    for k in 0..d {
        for i in 0..d {
            let ik = z.get(i, k);
            if ik.is_inf() {
                continue;
            }
            for j in 0..d {
                let through = ik + z.get(k, j);
                if through < z.get(i, j) {
                    z.set(i, j, through);
                }
            }
        }
    }
}

/// Reference: `Extra⁺_LU` widening followed by the dense closure.
fn dense_extrapolate_lu_plus(z: &mut Dbm, lower: &[i64], upper: &[i64]) {
    let mut changed = false;
    for (i, &li) in lower.iter().enumerate().skip(1) {
        let row_free = z.get(0, i) < Bound::le(-li);
        for (j, &uj) in upper.iter().enumerate() {
            let b = z.get(i, j);
            if i == j || b.is_inf() {
                continue;
            }
            if b > Bound::le(li) || row_free || (j != 0 && z.get(0, j) < Bound::le(-uj)) {
                z.set(i, j, Bound::INF);
                changed = true;
            }
        }
    }
    for (j, &uj) in upper.iter().enumerate().skip(1) {
        let b = z.get(0, j);
        if !b.is_inf() && b < Bound::lt(-uj) {
            z.set(0, j, Bound::lt(-uj));
            changed = true;
        }
    }
    if changed {
        dense_canonicalize(z);
    }
}

/// Reference: the dense minimal-form reduction over every index.
fn dense_reduce(z: &Dbm) -> Vec<MinCon> {
    let d = z.clocks() + 1;
    let mut rep = vec![0usize; d];
    for i in 0..d {
        rep[i] = i;
        for j in 0..i {
            if rep[j] == j && z.get(i, j) + z.get(j, i) == Bound::LE_ZERO {
                rep[i] = j;
                break;
            }
        }
    }
    let con = |i: usize, j: usize| MinCon {
        i: i as u8,
        j: j as u8,
        b: z.get(i, j),
    };
    let mut cons = Vec::new();
    for head in 0..d {
        if rep[head] != head {
            continue;
        }
        let members: Vec<usize> = (head..d).filter(|&i| rep[i] == head).collect();
        if members.len() < 2 {
            continue;
        }
        for w in 0..members.len() {
            cons.push(con(members[w], members[(w + 1) % members.len()]));
        }
    }
    for i in (0..d).filter(|&i| rep[i] == i) {
        for j in (0..d).filter(|&j| j != i && rep[j] == j) {
            let b = z.get(i, j);
            if b.is_inf() {
                continue;
            }
            let redundant = (0..d).any(|k| {
                k != i
                    && k != j
                    && rep[k] == k
                    && !z.get(i, k).is_inf()
                    && z.get(i, k) + z.get(k, j) <= b
            });
            if !redundant {
                cons.push(con(i, j));
            }
        }
    }
    cons
}

/// An arbitrary (generally non-canonical) matrix: each entry is `∞`,
/// `≤ v` or `< v` — negative values and diagonals included, so negative
/// cycles and pre-marked empty zones occur.
fn raw_matrix() -> impl Strategy<Value = Dbm> {
    let entry = (0u8..5, -20i64..40).prop_map(|(kind, v)| match kind {
        0 => Bound::le(v),
        1 => Bound::lt(v),
        _ => Bound::INF,
    });
    let diag = (0u8..8, -3i64..3).prop_map(|(kind, v)| match kind {
        0 => Bound::lt(v),
        1 => Bound::le(v),
        _ => Bound::LE_ZERO,
    });
    (
        proptest::collection::vec(entry, (CLOCKS + 1) * (CLOCKS + 1)),
        proptest::collection::vec(diag, CLOCKS + 1),
    )
        .prop_map(|(entries, diag)| {
            let d = CLOCKS + 1;
            let mut z = Dbm::universe(CLOCKS);
            for i in 0..d {
                for j in 0..d {
                    z.set(i, j, if i == j { diag[i] } else { entries[i * d + j] });
                }
            }
            z
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonicalization is idempotent: a second Floyd–Warshall pass
    /// changes nothing.
    #[test]
    fn canonicalization_idempotent(script in ops()) {
        let z = zone_from(&script);
        let mut again = z.clone();
        again.canonicalize();
        prop_assert!(again == z);
    }

    /// Inclusion is reflexive on canonical zones.
    #[test]
    fn inclusion_reflexive(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        prop_assert!(z.includes(&z));
    }

    /// Inclusion is antisymmetric: mutual inclusion of canonical
    /// non-empty zones implies syntactic equality.
    #[test]
    fn inclusion_antisymmetric(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        if a.includes(&b) && b.includes(&a) {
            prop_assert!(a == b);
        }
    }

    /// Inclusion is transitive.
    #[test]
    fn inclusion_transitive(s1 in ops(), s2 in ops(), s3 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        let c = zone_from(&s3);
        prop_assume!(!a.is_empty() && !b.is_empty() && !c.is_empty());
        if a.includes(&b) && b.includes(&c) {
            prop_assert!(a.includes(&c));
        }
    }

    /// Delay is idempotent: `up ∘ up = up`.
    #[test]
    fn up_idempotent(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut once = z.clone();
        once.up();
        once.canonicalize();
        let mut twice = once.clone();
        twice.up();
        twice.canonicalize();
        prop_assert!(twice == once);
    }

    /// Delay only grows the zone.
    #[test]
    fn up_is_extensive(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut up = z.clone();
        up.up();
        up.canonicalize();
        prop_assert!(up.includes(&z));
        prop_assert!(!up.is_empty());
    }

    /// Reset is idempotent and pins the clock.
    #[test]
    fn reset_idempotent(script in ops(), clock in 1usize..=CLOCKS, v in 0i64..50) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut once = z.clone();
        once.reset(clock, v);
        once.canonicalize();
        let mut twice = once.clone();
        twice.reset(clock, v);
        twice.canonicalize();
        prop_assert!(twice == once);
        prop_assert!(once.get(clock, 0) == Bound::le(v));
        prop_assert!(once.get(0, clock) == Bound::le(-v));
    }

    /// Intersection is the greatest lower bound: `a ∩ b ⊆ a`, `⊆ b`,
    /// and intersecting with itself is the identity.
    #[test]
    fn intersection_is_glb(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        let mut both = a.clone();
        both.intersect(&b);
        both.canonicalize();
        if !both.is_empty() {
            prop_assert!(a.includes(&both));
            prop_assert!(b.includes(&both));
        }
        let mut selfint = a.clone();
        selfint.intersect(&a);
        selfint.canonicalize();
        prop_assert!(selfint == a);
    }

    /// Extrapolation only grows the zone (it abstracts, never refines),
    /// and is idempotent for a fixed ceiling vector.
    #[test]
    fn extrapolation_widens_and_idempotent(script in ops(), k in 1i64..60) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let ks = vec![k; CLOCKS + 1];
        let mut wide = z.clone();
        wide.extrapolate(&ks);
        prop_assert!(wide.includes(&z));
        let mut again = wide.clone();
        again.extrapolate(&ks);
        prop_assert!(again == wide);
    }

    /// `Extra_LU` is a sound abstraction: `Z ⊆ ExtraLU(Z)` for any
    /// bound vectors, and it is idempotent for fixed vectors.
    #[test]
    fn lu_extrapolation_widens_and_idempotent(
        script in ops(),
        l in 1i64..60,
        u in 1i64..60,
    ) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let ls = vec![l; CLOCKS + 1];
        let us = vec![u; CLOCKS + 1];
        let mut wide = z.clone();
        wide.extrapolate_lu(&ls, &us);
        prop_assert!(wide.includes(&z));
        let mut again = wide.clone();
        again.extrapolate_lu(&ls, &us);
        prop_assert!(again == wide);
    }

    /// `Extra_LU` preserves `Extra_M`-completeness: with `L, U ≤ M` it
    /// abstracts at least as coarsely (`ExtraM(Z) ⊆ ExtraLU(Z)`), and
    /// with `L = U = M` the two operators coincide exactly.
    #[test]
    fn lu_extrapolation_is_coarser_than_extra_m(
        script in ops(),
        m in 1i64..60,
        dl in 0i64..20,
        du in 0i64..20,
    ) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let ms = vec![m; CLOCKS + 1];
        let ls = vec![(m - dl).max(0); CLOCKS + 1];
        let us = vec![(m - du).max(0); CLOCKS + 1];

        let mut by_m = z.clone();
        by_m.extrapolate(&ms);
        let mut by_lu = z.clone();
        by_lu.extrapolate_lu(&ls, &us);
        prop_assert!(by_lu.includes(&by_m));

        let mut degenerate = z.clone();
        degenerate.extrapolate_lu(&ms, &ms);
        prop_assert!(degenerate == by_m);
    }

    /// `Extra⁺_LU` (the engine's LU operator) is a sound abstraction at
    /// least as coarse as the per-entry `Extra_LU` for the same bounds:
    /// `Z ⊆ ExtraLU(Z) ⊆ ExtraLU⁺(Z)`.
    #[test]
    fn lu_plus_extrapolation_is_sound_and_coarser_than_lu(
        script in ops(),
        l in 1i64..60,
        u in 1i64..60,
    ) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let ls = vec![l; CLOCKS + 1];
        let us = vec![u; CLOCKS + 1];
        let mut by_lu = z.clone();
        by_lu.extrapolate_lu(&ls, &us);
        let mut by_plus = z.clone();
        by_plus.extrapolate_lu_plus(&ls, &us);
        prop_assert!(by_plus.includes(&z));
        prop_assert!(by_plus.includes(&by_lu));
    }

    /// The incremental closure agrees with the full Floyd–Warshall: for
    /// any canonical zone and any single tightening,
    /// `constrain_and_close` produces exactly `constrain` +
    /// `canonicalize`, is fully closed, and reports emptiness exactly
    /// when the full pipeline finds the zone empty.
    #[test]
    fn constrain_and_close_agrees_with_full_canonicalize(
        script in ops(),
        i in 0usize..=CLOCKS,
        j in 0usize..=CLOCKS,
        m in -60i64..60,
        weak in 0u8..2,
    ) {
        prop_assume!(i != j);
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let b = if weak == 1 { Bound::le(m) } else { Bound::lt(m) };

        let mut incremental = z.clone();
        let alive = incremental.constrain_and_close(i, j, b);

        let mut full = z.clone();
        full.constrain(i, j, b);
        full.canonicalize();

        prop_assert_eq!(alive, !full.is_empty());
        if alive {
            prop_assert!(incremental.is_closed());
            prop_assert!(incremental == full);
        }
    }

    /// Canonical-form preservation of the engine's successor pipeline:
    /// `up`, `reset`, and `free` keep a fully closed matrix fully
    /// closed (so no re-canonicalization is ever needed after them).
    #[test]
    fn canonical_ops_preserve_full_closure(
        script in ops(),
        clock in 1usize..=CLOCKS,
        v in 0i64..50,
    ) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        prop_assert!(z.is_closed());
        let mut up = z.clone();
        up.up();
        prop_assert!(up.is_closed());
        let mut reset = z.clone();
        reset.reset(clock, v);
        prop_assert!(reset.is_closed());
        let mut freed = z.clone();
        freed.free(clock);
        prop_assert!(freed.is_closed());
    }

    /// Minimal constraint form round-trips: `restore ∘ reduce` is the
    /// identity on canonical non-empty zones, and the reduced form
    /// never stores more than the full matrix's finite off-diagonal
    /// entries.
    #[test]
    fn reduce_restore_is_identity(script in ops()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let reduced = z.reduce();
        let restored = reduced.restore();
        prop_assert!(restored == z, "restore(reduce(z)) must equal z");
        let finite = (0..=CLOCKS)
            .flat_map(|i| (0..=CLOCKS).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && !z.get(i, j).is_inf())
            .count();
        prop_assert!(reduced.len() <= finite);
    }

    /// Inclusion checked against the minimal form agrees with full
    /// matrix inclusion — the compressed passed list subsumes exactly
    /// the zones the uncompressed one would.
    #[test]
    fn minimal_inclusion_agrees_with_full(s1 in ops(), s2 in ops()) {
        let a = zone_from(&s1);
        let b = zone_from(&s2);
        prop_assume!(!a.is_empty() && !b.is_empty());
        prop_assert_eq!(a.reduce().includes(&b), a.includes(&b));
        prop_assert_eq!(b.reduce().includes(&a), b.includes(&a));
    }

    /// Clock remapping through a permutation is lossless:
    /// `remap(p) ∘ remap(p⁻¹)` is the identity on canonical zones — the
    /// invariant that lets the analysis pass renumber clock indices
    /// without perturbing the zones the engine explores.
    #[test]
    fn remap_permutation_round_trips(script in ops(), perm_idx in 0usize..24) {
        let z = zone_from(&script);
        // Decode perm_idx (< 4! = 24) into the nth permutation of the
        // clock indices 1..=CLOCKS, reference clock 0 pinned in front.
        let mut avail: Vec<usize> = (1..=CLOCKS).collect();
        let mut p = vec![0usize];
        let mut k = perm_idx;
        for radix in (1..=CLOCKS).rev() {
            p.push(avail.remove(k % radix));
            k /= radix;
        }
        let mut inv = vec![0usize; CLOCKS + 1];
        for (new, &old) in p.iter().enumerate() {
            inv[old] = new;
        }
        let renamed = z.remap(&p);
        prop_assert!(renamed.remap(&inv) == z, "remap(p) ∘ remap(p⁻¹) must be the identity");
        // A permutation also commutes with emptiness and self-inclusion.
        prop_assert_eq!(renamed.is_empty(), z.is_empty());
    }

    /// The live-clock closure equals the dense Floyd–Warshall after every
    /// step of a script — on the non-canonical matrices the ops leave
    /// behind, empty-marked ones included.
    #[test]
    fn canonicalize_matches_dense_along_scripts(script in ops()) {
        let mut z = Dbm::zero(CLOCKS);
        for op in &script {
            apply(&mut z, op);
            let mut dense = z.clone();
            dense_canonicalize(&mut dense);
            z.canonicalize();
            prop_assert!(z == dense, "live closure diverged after {:?}", op);
        }
    }

    /// The live-clock closure equals the dense Floyd–Warshall on
    /// arbitrary matrices: rows and columns without bounds, negative
    /// cycles and negative diagonals.
    #[test]
    fn canonicalize_matches_dense_on_raw_matrices(raw in raw_matrix()) {
        let mut live = raw.clone();
        live.canonicalize();
        let mut dense = raw;
        dense_canonicalize(&mut dense);
        prop_assert!(live == dense);
    }

    /// `Extra⁺_LU` with its sweep-collected live sets equals widening
    /// plus the dense closure, for arbitrary per-clock bound vectors.
    #[test]
    fn lu_plus_extrapolation_matches_dense(script in ops(), ls in bounds(), us in bounds()) {
        let z = zone_from(&script);
        prop_assume!(!z.is_empty());
        let mut live = z.clone();
        live.extrapolate_lu_plus(&ls, &us);
        let mut dense = z;
        dense_extrapolate_lu_plus(&mut dense, &ls, &us);
        prop_assert!(live == dense);
    }

    /// The restricted reduction emits exactly the dense reduction's
    /// constraint list, in the same order — the stored passed-list
    /// bytes and artifacts do not depend on the restriction.
    #[test]
    fn reduce_matches_dense(script in ops(), ls in bounds(), us in bounds(), widen in 0u8..2) {
        let mut z = zone_from(&script);
        prop_assume!(!z.is_empty());
        if widen == 1 {
            z.extrapolate_lu_plus(&ls, &us);
        }
        let reduced = z.reduce();
        prop_assert_eq!(reduced.constraints().to_vec(), dense_reduce(&z));
    }
}
