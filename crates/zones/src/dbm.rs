//! Difference Bound Matrices — the canonical constraint representation for
//! zones of clock valuations.
//!
//! A zone over clocks `x1 … xn` is a conjunction of constraints
//! `xi - xj ≺ m` with `≺ ∈ {<, ≤}`; adding the reference "clock" `x0 ≡ 0`
//! makes single-clock bounds (`xi ≤ 5`, `xi > 2`) differences too. A DBM
//! stores the tightest such bound for every ordered pair in an
//! `(n+1) × (n+1)` matrix; Floyd–Warshall shortest paths bring it to
//! *canonical form*, on which emptiness, inclusion and hashing are
//! syntactic checks (Bengtsson & Yi, *Timed Automata: Semantics,
//! Algorithms and Tools*, Lect. Notes 3098).
//!
//! Bounds are kept in integer **ticks** (this crate scales seconds by
//! [`crate::SCALE`] = 1 µs/tick), which keeps canonicalization exact —
//! floating-point DBMs lose confluence of the closure operation.

use std::fmt;

/// One bound `≺ m`: either `(<, m)`, `(≤, m)`, or `∞` (unconstrained).
///
/// Encoded in a single `i64` as `2m + 1` for `≤ m` and `2m` for `< m`,
/// so the natural integer order is exactly bound tightness:
/// `(<, m) < (≤, m) < (<, m+1)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bound(i64);

/// Sentinel for `∞`, chosen so additions cannot overflow.
const INF_RAW: i64 = i64::MAX / 4;

impl Bound {
    /// The unconstrained bound `∞`.
    pub const INF: Bound = Bound(INF_RAW);

    /// `≤ 0`, the bound tying a freshly reset clock to the reference.
    pub const LE_ZERO: Bound = Bound(1);

    /// `< 0`, an unsatisfiable self-bound (used to mark empty DBMs).
    pub const LT_ZERO: Bound = Bound(0);

    /// The non-strict bound `≤ m`.
    pub fn le(m: i64) -> Bound {
        Bound(2 * m + 1)
    }

    /// The strict bound `< m`.
    pub fn lt(m: i64) -> Bound {
        Bound(2 * m)
    }

    /// `true` if this is `∞`.
    pub fn is_inf(self) -> bool {
        self.0 >= INF_RAW
    }

    /// The numeric bound `m` (meaningless for `∞`).
    pub fn value(self) -> i64 {
        self.0 >> 1
    }

    /// `true` for `≤`, `false` for `<` (meaningless for `∞`).
    pub fn is_weak(self) -> bool {
        self.0 & 1 == 1
    }

    /// The raw `2m + weakness` encoding — the serialization unit of the
    /// passed-list artifact. `∞` is a reserved sentinel; the encoding is stable
    /// (the natural integer order *is* bound tightness), so persisting
    /// raw values round-trips exactly.
    pub fn raw(self) -> i64 {
        self.0
    }

    /// Rebuilds a bound from its [`Bound::raw`] encoding. Values at or
    /// above the `∞` sentinel normalize to [`Bound::INF`].
    pub fn from_raw(raw: i64) -> Bound {
        if raw >= INF_RAW {
            Bound::INF
        } else {
            Bound(raw)
        }
    }
}

impl std::ops::Add for Bound {
    type Output = Bound;

    /// Bound addition (path concatenation): values add, strictness is
    /// inherited from either strict operand; `∞` absorbs.
    fn add(self, other: Bound) -> Bound {
        if self.is_inf() || other.is_inf() {
            Bound::INF
        } else {
            // Values add; the result is weak (`≤`) only if both operands
            // are weak: raw sum carries w1 + w2 in the parity bits, so
            // subtracting (w1 | w2) leaves w1 & w2.
            Bound(self.0 + other.0 - ((self.0 | other.0) & 1))
        }
    }
}

impl fmt::Debug for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inf() {
            write!(f, "<inf")
        } else if self.is_weak() {
            write!(f, "<={}", self.value())
        } else {
            write!(f, "<{}", self.value())
        }
    }
}

/// A zone as a difference bound matrix over `dim - 1` real clocks plus
/// the reference clock `0`.
///
/// Entry `(i, j)` bounds `xi - xj`. Mutating operations leave the matrix
/// non-canonical; call [`Dbm::canonicalize`] (or use the `*_canon`
/// helpers) before emptiness/inclusion tests. All public predicates
/// (`is_empty`, `includes`, `satisfies`) assume canonical inputs.
///
/// The derived `Ord` is a *syntactic* lexicographic order over the
/// bound matrix — unrelated to zone inclusion — provided so engines can
/// sort zones into a deterministic processing order.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dbm {
    dim: usize,
    m: Vec<Bound>,
}

impl Dbm {
    /// The zone `{0}` — every clock exactly zero (`clocks` real clocks).
    pub fn zero(clocks: usize) -> Dbm {
        let dim = clocks + 1;
        Dbm {
            dim,
            m: vec![Bound::LE_ZERO; dim * dim],
        }
    }

    /// The universal zone: all clock valuations `≥ 0`.
    pub fn universe(clocks: usize) -> Dbm {
        let dim = clocks + 1;
        let mut m = vec![Bound::INF; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = Bound::LE_ZERO;
            // x0 - xi <= 0 (clocks are non-negative).
            m[i] = Bound::LE_ZERO;
        }
        Dbm { dim, m }
    }

    /// Number of real clocks (matrix dimension minus the reference).
    pub fn clocks(&self) -> usize {
        self.dim - 1
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.dim + j
    }

    /// The bound on `xi - xj`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Bound {
        self.m[self.idx(i, j)]
    }

    /// Sets the bound on `xi - xj` (no tightening check, no closure).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, b: Bound) {
        let k = self.idx(i, j);
        self.m[k] = b;
    }

    /// Floyd–Warshall all-pairs tightening to canonical form, over the
    /// clocks that carry bounds.
    ///
    /// An O(d²) scan finds the *live* rows and columns: those with a
    /// finite off-diagonal entry, or a negative diagonal. The closure
    /// then takes pivots `k` that are live as both row and column and
    /// relaxes live rows only, costing O(p·r·d) for `p` live pivots and
    /// `r` live rows. On the engine's activity-reduced zones most
    /// clocks are freed, so `p` and `r` sit well below `d`; a zone with
    /// every clock bounded pays the dense O(d³).
    ///
    /// The result is bit-identical to the dense closure:
    ///
    /// * a row that starts empty stays empty, because every path out of
    ///   `i` begins with an edge out of `i`; the same holds for
    ///   columns, so the live sets never grow during the closure;
    /// * a dense update of `(i, j)` through `k` needs a finite `(i, k)`
    ///   and a finite `(k, j)`, so (for `i ≠ k ≠ j`) `i` is a live row
    ///   and `k` a live pivot. The remaining cases go through a
    ///   diagonal, which only tightens anything when it is negative —
    ///   and a negative diagonal marks its index live, either from the
    ///   start or because a negative cycle through live edges made it
    ///   so.
    ///
    /// Every skipped update is therefore a no-op of the dense closure,
    /// and the updates that remain run in the same order.
    ///
    /// The engine only needs it when a zone is built from scratch
    /// (lowering, tests) or loosened wholesale (extrapolation).
    /// Successor computation uses the O(d²) incremental
    /// [`Dbm::close1`] path instead.
    pub fn canonicalize(&mut self) {
        let (rows, cols) = self.live_sets();
        self.close_live(&rows, &cols);
    }

    /// The live rows and columns, as defined at [`Dbm::canonicalize`].
    fn live_sets(&self) -> (IndexSet, IndexSet) {
        let d = self.dim;
        let mut rows = IndexSet::new(d);
        let mut cols = IndexSet::new(d);
        for i in 0..d {
            for j in 0..d {
                let b = self.m[i * d + j];
                if (i != j && !b.is_inf()) || (i == j && b < Bound::LE_ZERO) {
                    rows.insert(i);
                    cols.insert(j);
                }
            }
        }
        (rows, cols)
    }

    /// The crate's one Floyd–Warshall closure: pivots `k` in
    /// `rows ∩ cols`, relaxing only rows in `rows`. Exact whenever
    /// `rows` (`cols`) contains every live row (column) in the sense of
    /// [`Dbm::canonicalize`], which gives the argument.
    fn close_live(&mut self, rows: &IndexSet, cols: &IndexSet) {
        let d = self.dim;
        for k in rows.iter() {
            if !cols.contains(k) {
                continue;
            }
            for i in rows.iter() {
                let ik = self.m[i * d + k];
                if !ik.is_inf() {
                    self.relax_row(i, k, ik);
                }
            }
        }
    }

    /// Relaxes row `i` through `k`: `(i, j) ← min((i, j), ik + (k, j))`
    /// for every `j`, with `ik` the finite `(i, k)` read before the
    /// sweep — the inner loop of both closures.
    #[inline]
    fn relax_row(&mut self, i: usize, k: usize, ik: Bound) {
        let d = self.dim;
        if i == k {
            // Through the diagonal: only a negative one tightens.
            if ik < Bound::LE_ZERO {
                for j in 0..d {
                    let through = ik + self.m[k * d + j];
                    if through < self.m[i * d + j] {
                        self.m[i * d + j] = through;
                    }
                }
            }
            return;
        }
        let (row_i, row_k) = if i < k {
            let (head, tail) = self.m.split_at_mut(k * d);
            (&mut head[i * d..(i + 1) * d], &tail[..d])
        } else {
            let (head, tail) = self.m.split_at_mut(i * d);
            (&mut tail[..d], &head[k * d..(k + 1) * d])
        };
        for (ij, &kj) in row_i.iter_mut().zip(row_k) {
            let through = ik + kj;
            if through < *ij {
                *ij = through;
            }
        }
    }

    /// Incremental re-closure after tightening the single entry `(i, j)`
    /// of an otherwise-canonical matrix — O(n²) instead of the full
    /// O(n³) Floyd–Warshall.
    ///
    /// Every path that got shorter must use the new edge `i → j` (and,
    /// absent negative cycles, uses it exactly once), so it decomposes
    /// as `p → i → j → q` with both halves already closed. Pass 1 folds
    /// the new edge into column `j` (`p → i → j`); pass 2 extends those
    /// through the old rows (`p → j → q`).
    ///
    /// Precondition: the matrix was canonical before `(i, j)` was
    /// tightened, and the tightening does not empty the zone (check
    /// `get(j, i) + b ≥ ≤0` first — [`Dbm::constrain_and_close`] does).
    pub fn close1(&mut self, i: usize, j: usize) {
        let d = self.dim;
        let b = self.m[i * d + j];
        if b.is_inf() {
            return;
        }
        // Track which `(p, j)` entries pass 1 actually tightens (plus
        // row `i`, whose `(i, j)` entry the caller tightened): a row
        // whose shortest path to `j` did not improve cannot improve
        // anywhere through the new edge, so pass 2 only walks the
        // touched rows — O(n + changed·n) in practice.
        let mut touched = IndexSet::new(d);
        touched.insert(i);
        for p in 0..d {
            let pi = self.m[p * d + i];
            if pi.is_inf() {
                continue;
            }
            let through = pi + b;
            if through < self.m[p * d + j] {
                self.m[p * d + j] = through;
                touched.insert(p);
            }
        }
        for p in touched.iter() {
            let pj = self.m[p * d + j];
            if !pj.is_inf() {
                self.relax_row(p, j, pj);
            }
        }
    }

    /// Conjoins `xi - xj ≺ b` onto a **canonical** matrix and restores
    /// canonical form incrementally ([`Dbm::close1`], O(n²)). Returns
    /// `false` — and marks the zone empty — when the constraint is
    /// inconsistent with the current zone; on `true` the matrix is
    /// canonical and non-empty, so no separate
    /// [`Dbm::canonicalize`]/[`Dbm::is_empty`] round is needed.
    pub fn constrain_and_close(&mut self, i: usize, j: usize, b: Bound) -> bool {
        debug_assert!(
            self.closed_through_zero(),
            "constrain_and_close requires a canonical matrix"
        );
        // On a canonical matrix the consistency pre-check is exact: the
        // constraint empties the zone iff it closes a negative cycle
        // with the tightest reverse path.
        if self.get(j, i) + b < Bound::LE_ZERO {
            let k = self.idx(0, 0);
            self.m[k] = Bound::LT_ZERO;
            return false;
        }
        if b < self.get(i, j) {
            let k = self.idx(i, j);
            self.m[k] = b;
            self.close1(i, j);
        }
        true
    }

    /// `true` if the matrix is a Floyd–Warshall fixpoint (fully closed):
    /// no triangle `i → k → j` is shorter than the stored `(i, j)`
    /// bound. O(n³) — meant for debug assertions and law tests, not the
    /// hot path.
    pub fn is_closed(&self) -> bool {
        let d = self.dim;
        for k in 0..d {
            for i in 0..d {
                let ik = self.m[i * d + k];
                if ik.is_inf() {
                    continue;
                }
                for j in 0..d {
                    if ik + self.m[k * d + j] < self.m[i * d + j] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Cheap necessary condition for canonical form — closure through
    /// the reference clock only (O(n²)) plus non-negative diagonal.
    /// Used as the `debug_assert!` precondition on the hot incremental
    /// path, where the full [`Dbm::is_closed`] sweep would dominate
    /// debug-build runtimes; full closure is law-tested in the crate's
    /// proptests instead.
    pub fn closed_through_zero(&self) -> bool {
        let d = self.dim;
        for i in 0..d {
            if self.m[i * d + i] < Bound::LE_ZERO {
                return false;
            }
            let i0 = self.m[i * d];
            if i0.is_inf() {
                continue;
            }
            for j in 0..d {
                if i0 + self.m[j] < self.m[i * d + j] {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if the zone is empty: some diagonal entry became negative.
    ///
    /// Precondition (debug-asserted): the matrix is canonical, or was
    /// explicitly marked empty by a failed
    /// [`Dbm::constrain`]/[`Dbm::constrain_and_close`] — on arbitrary
    /// non-canonical matrices the diagonal test is meaningless.
    pub fn is_empty(&self) -> bool {
        let marked = (0..self.dim).any(|i| self.get(i, i) < Bound::LE_ZERO);
        debug_assert!(
            marked || self.closed_through_zero(),
            "is_empty requires a canonical (or explicitly empty-marked) matrix"
        );
        marked
    }

    /// Delay (future) operator `up`: removes upper bounds on every clock,
    /// letting arbitrary time elapse. Preserves canonical form.
    pub fn up(&mut self) {
        for i in 1..self.dim {
            let k = self.idx(i, 0);
            self.m[k] = Bound::INF;
        }
    }

    /// Past operator `down`: lets time flow backwards to the zone's
    /// origins (clamped at zero). Preserves canonical form.
    pub fn down(&mut self) {
        let d = self.dim;
        for i in 1..d {
            self.m[i] = Bound::LE_ZERO;
            for j in 1..d {
                let ji = self.m[j * d + i];
                if ji < self.m[i] {
                    self.m[i] = ji;
                }
            }
        }
    }

    /// Frees clock `x` (1-based): removes every constraint on it.
    /// Leaves the matrix canonical if it was canonical.
    pub fn free(&mut self, x: usize) {
        debug_assert!(x >= 1 && x < self.dim);
        for i in 0..self.dim {
            if i != x {
                let a = self.idx(x, i);
                self.m[a] = Bound::INF;
                let b0 = self.get(i, 0);
                let b = self.idx(i, x);
                self.m[b] = b0;
            }
        }
    }

    /// Projects/permutes the zone through a clock index map: entry
    /// `(i, j)` of the result is entry `(from[i], from[j])` of `self`,
    /// where `from[r]` names the old index of new index `r` (`from[0]`
    /// must be `0` — the reference clock stays put).
    ///
    /// With `from` a permutation of `0..dim` this renames clocks; with a
    /// strict subset it projects dropped clocks away (existentially
    /// quantifying them, which on a **canonical** matrix is exactly
    /// "take the sub-matrix"). The result of remapping a canonical
    /// matrix is canonical: any tightening path through a dropped index
    /// was already folded into the kept entries by closure. For a
    /// permutation `p`, `z.remap(p).remap(p⁻¹) == z` — the identity the
    /// analysis proptests pin down.
    pub fn remap(&self, from: &[usize]) -> Dbm {
        assert!(!from.is_empty() && from[0] == 0, "reference clock moves");
        assert!(
            from.iter().all(|&o| o < self.dim),
            "clock map names an index beyond the matrix dimension"
        );
        let dim = from.len();
        let mut m = Vec::with_capacity(dim * dim);
        for &i in from {
            for &j in from {
                m.push(self.get(i, j));
            }
        }
        Dbm { dim, m }
    }

    /// Resets clock `x` (1-based) to the constant `v` ticks. Preserves
    /// canonical form.
    pub fn reset(&mut self, x: usize, v: i64) {
        debug_assert!(x >= 1 && x < self.dim);
        for i in 0..self.dim {
            if i == x {
                continue;
            }
            let zero_i = self.get(0, i);
            let i_zero = self.get(i, 0);
            let a = self.idx(x, i);
            self.m[a] = Bound::le(v) + zero_i;
            let b = self.idx(i, x);
            self.m[b] = i_zero + Bound::le(-v);
        }
    }

    /// Conjoins the constraint `xi - xj ≺ b`, tightening in place.
    /// Returns `false` immediately if the constraint is trivially
    /// inconsistent with the current matrix (fast pre-check); a full
    /// [`Dbm::canonicalize`] is still needed before further queries.
    pub fn constrain(&mut self, i: usize, j: usize, b: Bound) -> bool {
        // Inconsistent with the reverse path ⇒ empty.
        if self.get(j, i) + b < Bound::LE_ZERO {
            let k = self.idx(0, 0);
            self.m[k] = Bound::LT_ZERO;
            return false;
        }
        if b < self.get(i, j) {
            let k = self.idx(i, j);
            self.m[k] = b;
        }
        true
    }

    /// Pointwise intersection with `other`; call
    /// [`Dbm::canonicalize`] afterwards.
    pub fn intersect(&mut self, other: &Dbm) {
        debug_assert_eq!(self.dim, other.dim);
        for k in 0..self.m.len() {
            if other.m[k] < self.m[k] {
                self.m[k] = other.m[k];
            }
        }
    }

    /// `true` if `self` ⊇ `other` (both canonical, neither empty):
    /// every bound of `self` is at least as loose.
    pub fn includes(&self, other: &Dbm) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        debug_assert!(
            self.closed_through_zero() && other.closed_through_zero(),
            "includes requires canonical non-empty operands"
        );
        self.m
            .iter()
            .zip(other.m.iter())
            .all(|(mine, theirs)| theirs <= mine)
    }

    /// `true` if the (canonical, non-empty) zone intersects
    /// `xi - xj ≺ b`.
    pub fn satisfies(&self, i: usize, j: usize, b: Bound) -> bool {
        debug_assert!(
            self.closed_through_zero(),
            "satisfies requires a canonical non-empty zone"
        );
        self.get(j, i) + b >= Bound::LE_ZERO
    }

    /// Overwrites `self` with `other`'s contents, reusing the existing
    /// bound-matrix allocation when the dimensions match — the pool
    /// path that keeps successor computation allocation-free.
    pub fn copy_from(&mut self, other: &Dbm) {
        self.dim = other.dim;
        self.m.clear();
        self.m.extend_from_slice(&other.m);
    }

    /// Classical maximal-constant extrapolation `Extra_M` (k-normalization):
    /// bounds looser than `k[x]` are widened to `∞`, lower bounds tighter
    /// than `-k[x]` are clamped, guaranteeing finitely many zones per
    /// location. `k` is indexed by clock (entry 0 is the reference and
    /// ignored). Sound for diagonal-free timed automata; re-canonicalizes.
    ///
    /// `Extra_M` is exactly [`Dbm::extrapolate_lu`] with `L = U = M`.
    pub fn extrapolate(&mut self, k: &[i64]) {
        self.extrapolate_lu(k, k);
    }

    /// Lower/upper-bound extrapolation `Extra_LU` (Behrmann, Bouyer,
    /// Larsen & Pelánek, *Lower and Upper Bounds in Zone Based
    /// Abstractions of Timed Automata*):
    ///
    /// * an upper bound on `x_i` looser than `L(x_i)` is widened to `∞`
    ///   — no *lower-bound* guard (`x > c`, `x ≥ c`, `c ≤ L(x_i)`) can
    ///   distinguish values above `L(x_i)`;
    /// * a lower bound on `x_j` tighter than `-U(x_j)` is clamped to
    ///   `< -U(x_j)` — no *upper-bound* guard can distinguish values
    ///   above `U(x_j)`.
    ///
    /// With `L ≤ M` and `U ≤ M` this abstracts at least as coarsely as
    /// `Extra_M` (strictly coarser whenever some clock is only ever
    /// compared in one direction), so the zone graph settles *fewer*
    /// states while preserving reachability of every diagonal-free
    /// property. Both vectors are indexed like `k` in
    /// [`Dbm::extrapolate`] (entry 0 = reference, ignored).
    /// Re-canonicalizes when anything changed.
    pub fn extrapolate_lu(&mut self, lower: &[i64], upper: &[i64]) {
        debug_assert_eq!(lower.len(), self.dim);
        debug_assert_eq!(upper.len(), self.dim);
        let d = self.dim;
        let mut changed = false;
        for (i, &li) in lower.iter().enumerate() {
            for (j, &uj) in upper.iter().enumerate().take(d) {
                if i == j {
                    continue;
                }
                let idx = i * d + j;
                let b = self.m[idx];
                if b.is_inf() {
                    continue;
                }
                if i != 0 && b > Bound::le(li) {
                    self.m[idx] = Bound::INF;
                    changed = true;
                } else if j != 0 && b < Bound::lt(-uj) {
                    self.m[idx] = Bound::lt(-uj);
                    changed = true;
                }
            }
        }
        if changed {
            self.canonicalize();
        }
    }

    /// Zone-position-based LU extrapolation `Extra⁺_LU` (ibid., the
    /// operator UPPAAL applies): in addition to [`Dbm::extrapolate_lu`]'s
    /// per-entry rules, whole rows and columns are widened based on
    /// where the *zone* sits relative to the bounds —
    ///
    /// * row `i` is widened when the zone already implies
    ///   `x_i > L(x_i)` (no lower-bound guard can tell its values apart);
    /// * column `j` (and, on the reference row, the lower bound of
    ///   `x_j`, clamped to `> U(x_j)`) is widened when the zone implies
    ///   `x_j > U(x_j)` (no upper-bound guard can tell its values
    ///   apart), which erases the diagonal correlations `x - x_j` that
    ///   keep otherwise-equivalent zones distinct.
    ///
    /// Strictly coarser than `Extra_LU` (hence than `Extra_M`), and
    /// sound for diagonal-free timed automata whose lower-/upper-bound
    /// guard constants are covered by `L`/`U`. Unlike the per-entry
    /// operators it is **not** idempotent in general: widening plus
    /// re-canonicalization can expose further widening opportunities.
    /// Each zone passes through it once per settle, so the engine only
    /// needs soundness and the (preserved) finite-range guarantee, not
    /// idempotence.
    ///
    /// The widening sweep records which rows and columns keep a finite
    /// bound, so the re-closure runs over the live clocks only (as in
    /// [`Dbm::canonicalize`]) without a second scan.
    pub fn extrapolate_lu_plus(&mut self, lower: &[i64], upper: &[i64]) {
        debug_assert_eq!(lower.len(), self.dim);
        debug_assert_eq!(upper.len(), self.dim);
        let d = self.dim;
        let mut changed = false;
        let mut rows = IndexSet::new(d);
        let mut cols = IndexSet::new(d);
        // The rules read the zone's pre-extrapolation lower bounds (the
        // reference row `c_0x`); processing rows `i ≥ 1` first and the
        // reference row last keeps those reads on the original values
        // without snapshotting the row (`i ≥ 1` writes never alias row
        // 0, and the row-0 clamp reads each entry before writing it).
        for (i, &li) in lower.iter().enumerate().take(d).skip(1) {
            // `m[0][x] < le(-k)` encodes "the zone implies x > k".
            let row_free = self.m[i] < Bound::le(-li);
            let mut live = self.m[i * d + i] < Bound::LE_ZERO;
            if live {
                cols.insert(i);
            }
            for (j, &uj) in upper.iter().enumerate().take(d) {
                if i == j {
                    continue;
                }
                let idx = i * d + j;
                let b = self.m[idx];
                if b.is_inf() {
                    continue;
                }
                if b > Bound::le(li) || row_free || (j != 0 && self.m[j] < Bound::le(-uj)) {
                    self.m[idx] = Bound::INF;
                    changed = true;
                } else {
                    live = true;
                    cols.insert(j);
                }
            }
            if live {
                rows.insert(i);
            }
        }
        if self.m[0] < Bound::LE_ZERO {
            rows.insert(0);
            cols.insert(0);
        }
        for (j, &uj) in upper.iter().enumerate().take(d).skip(1) {
            // `b < lt(-uj)` subsumes the zone-position test
            // `b < le(-uj)` — `lt` is the strictly tighter encoding.
            let b = self.m[j];
            if b.is_inf() {
                continue;
            }
            if b < Bound::lt(-uj) {
                self.m[j] = Bound::lt(-uj);
                changed = true;
            }
            rows.insert(0);
            cols.insert(j);
        }
        if changed {
            self.close_live(&rows, &cols);
        }
    }

    /// Reduces a **canonical, non-empty** zone to its minimal constraint
    /// form — the smallest constraint set whose closure reproduces this
    /// matrix (Larsen–Larsson–Pettersson–Yi's compact passed-list
    /// representation, as presented in Bengtsson & Yi §4):
    ///
    /// 1. clocks are partitioned into *zero-equivalence* classes
    ///    (`i ≡ j` iff `m[i][j] + m[j][i] = ≤0`, i.e. the zone pins
    ///    their difference exactly); each class of size ≥ 2 contributes
    ///    one constraint cycle through its members in index order;
    /// 2. between class representatives, an entry is dropped iff some
    ///    third representative lies on an equally short path —
    ///    simultaneous removal is sound because the representative
    ///    graph has no zero-length cycles.
    ///
    /// `∞` entries are never stored; everything else is recovered by
    /// closure ([`MinimalDbm::restore`] is the inverse, law-tested in
    /// the crate proptests).
    ///
    /// Only indices with finite bounds take part: a class of size ≥ 2
    /// and a redundancy witness `k` both need a finite row *and* column
    /// (`linked` below), a kept `(i, j)` a finite row `i` and column
    /// `j`. The cost is therefore O(d²) for the scan plus O(r·c·l) for
    /// `r` live rows, `c` live columns and `l` linked indices — not the
    /// dense O(d³). Constraints are emitted in the same order as a
    /// dense sweep (classes by head, then `(i, j)` row-major), so the
    /// stored form is independent of the restriction.
    pub fn reduce(&self) -> MinimalDbm {
        debug_assert!(
            !self.is_empty() && self.is_closed(),
            "reduce requires a canonical non-empty zone"
        );
        debug_assert!(self.dim <= u8::MAX as usize, "dim fits u8 indices");
        let d = self.dim;
        let (rows, cols) = self.live_sets();
        let linked: Vec<usize> = rows.iter().filter(|&i| cols.contains(i)).collect();
        // 1. Zero-equivalence classes; rep[i] = least member of i's
        // class. Equivalence needs both `(i, j)` and `(j, i)` finite, so
        // only linked indices can share a class.
        let mut rep: Vec<u8> = (0..d).map(|i| i as u8).collect();
        for &i in &linked {
            for &j in linked.iter().take_while(|&&j| j < i) {
                if rep[j] as usize == j && self.get(i, j) + self.get(j, i) == Bound::LE_ZERO {
                    rep[i] = j as u8;
                    break;
                }
            }
        }
        let is_rep = |i: usize| rep[i] as usize == i;
        let mut cons: Vec<MinCon> = Vec::new();
        let mut push = |i: usize, j: usize, b: Bound| {
            cons.push(MinCon {
                i: i as u8,
                j: j as u8,
                b,
            })
        };
        // Class cycles: members in index order, closing back to the head.
        for &head in linked.iter().filter(|&&h| is_rep(h)) {
            let mut prev = head;
            for &member in linked
                .iter()
                .filter(|&&m| m > head && rep[m] as usize == head)
            {
                push(prev, member, self.get(prev, member));
                prev = member;
            }
            if prev != head {
                push(prev, head, self.get(prev, head));
            }
        }
        // Representative graph: keep (i, j) unless a third representative
        // lies on an equally tight path.
        let witnesses: Vec<usize> = linked.into_iter().filter(|&k| is_rep(k)).collect();
        for i in rows.iter().filter(|&i| is_rep(i)) {
            let row_i = &self.m[i * d..(i + 1) * d];
            for j in cols.iter() {
                let b = row_i[j];
                if i == j || b.is_inf() || !is_rep(j) {
                    continue;
                }
                let redundant = witnesses.iter().any(|&k| {
                    let ik = row_i[k];
                    k != i && k != j && !ik.is_inf() && ik + self.m[k * d + j] <= b
                });
                if !redundant {
                    push(i, j, b);
                }
            }
        }
        MinimalDbm {
            dim: d as u8,
            cons: cons.into_boxed_slice(),
        }
    }

    /// Renders the non-trivial constraints (canonical form assumed),
    /// `names[i]` naming clock `i+1`, in ticks.
    pub fn render(&self, names: &[String]) -> String {
        let mut parts = Vec::new();
        let name = |i: usize| -> String {
            if i == 0 {
                "0".to_string()
            } else {
                names.get(i - 1).cloned().unwrap_or_else(|| format!("x{i}"))
            }
        };
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                let b = self.get(i, j);
                if b.is_inf() {
                    continue;
                }
                // Skip the implicit non-negativity bounds to keep output
                // readable.
                if i == 0 && b == Bound::LE_ZERO {
                    continue;
                }
                let op = if b.is_weak() { "<=" } else { "<" };
                if i == 0 {
                    parts.push(format!("{} {} {}", -b.value(), op, name(j)));
                } else if j == 0 {
                    parts.push(format!("{} {} {}", name(i), op, b.value()));
                } else {
                    parts.push(format!("{} - {} {} {}", name(i), name(j), op, b.value()));
                }
            }
        }
        if parts.is_empty() {
            "true".to_string()
        } else {
            parts.join(" ∧ ")
        }
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dbm[{}]", self.dim)?;
        for i in 0..self.dim {
            for j in 0..self.dim {
                write!(f, "{:?}\t", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One stored constraint `xi - xj ≺ b` of a [`MinimalDbm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MinCon {
    /// Row (minuend) clock index.
    pub i: u8,
    /// Column (subtrahend) clock index.
    pub j: u8,
    /// The bound.
    pub b: Bound,
}

/// A zone in minimal constraint form: the irredundant constraint set
/// produced by [`Dbm::reduce`], typically O(n) entries instead of the
/// full `(n+1)²` matrix. This is the passed-list storage format —
/// inclusion against a full canonical DBM needs only the stored
/// constraints, and [`MinimalDbm::restore`] recovers the exact matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MinimalDbm {
    dim: u8,
    cons: Box<[MinCon]>,
}

impl MinimalDbm {
    /// Number of stored constraints.
    pub fn len(&self) -> usize {
        self.cons.len()
    }

    /// The DBM dimension (`clocks + 1` including the reference clock).
    pub fn dim(&self) -> u8 {
        self.dim
    }

    /// The stored constraints, in [`Dbm::reduce`] emission order.
    pub fn constraints(&self) -> &[MinCon] {
        &self.cons
    }

    /// Reassembles a zone from serialized parts ([`MinimalDbm::dim`] +
    /// [`MinimalDbm::constraints`]). The parts are trusted to describe
    /// a canonical non-empty zone's minimal form — artifact loaders
    /// re-validate by checking [`MinimalDbm::restore`] is non-empty
    /// before admitting the zone anywhere.
    pub fn from_parts(dim: u8, cons: Vec<MinCon>) -> MinimalDbm {
        MinimalDbm {
            dim,
            cons: cons.into_boxed_slice(),
        }
    }

    /// `true` when no constraint is stored (the delay-closed universe).
    pub fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }

    /// Heap bytes held by the constraint list — the passed-list memory
    /// accounting unit reported in `SearchStats`.
    pub fn heap_bytes(&self) -> usize {
        self.cons.len() * std::mem::size_of::<MinCon>()
    }

    /// Heap bytes the same zone would occupy as a full bound matrix
    /// (the PR 2 storage format this form replaces).
    pub fn full_matrix_bytes(&self) -> usize {
        let d = self.dim as usize;
        d * d * std::mem::size_of::<Bound>()
    }

    /// `true` if this zone ⊇ `other` (a canonical, non-empty full DBM
    /// of the same dimension).
    ///
    /// Sound and complete without restoring the matrix: every point of
    /// `other` satisfies `p_i - p_j ≤ other[i][j] ≤ b` for each stored
    /// constraint, hence lies in this zone; conversely a violated
    /// stored constraint exhibits a point of `other` outside it
    /// (`other` is canonical, so its bounds are tight).
    pub fn includes(&self, other: &Dbm) -> bool {
        debug_assert_eq!(self.dim as usize, other.clocks() + 1);
        self.cons
            .iter()
            .all(|c| other.get(c.i as usize, c.j as usize) <= c.b)
    }

    /// Rebuilds the full canonical DBM: start unconstrained, apply the
    /// stored constraints, close. Inverse of [`Dbm::reduce`] on
    /// canonical non-empty zones.
    pub fn restore(&self) -> Dbm {
        let mut z = Dbm {
            dim: 0,
            m: Vec::new(),
        };
        self.restore_into(&mut z);
        z
    }

    /// [`MinimalDbm::restore`] into a caller-owned scratch matrix —
    /// the artifact-validation hot path restores thousands of zones
    /// back-to-back, and this form both reuses the allocation and
    /// runs the live-clock closure of [`Dbm::canonicalize`] over
    /// constraint endpoints only: a row (column) without a stored
    /// constraint has no finite off-diagonal entry. On activity-reduced
    /// zones most clocks are free in most states, which makes the
    /// restricted closure several times cheaper than the dense one
    /// while producing the identical canonical matrix (negative cycles
    /// still surface on a pivot's diagonal, so [`Dbm::is_empty`] works
    /// unchanged).
    pub fn restore_into(&self, z: &mut Dbm) {
        let d = self.dim as usize;
        z.dim = d;
        z.m.clear();
        z.m.resize(d * d, Bound::INF);
        for i in 0..d {
            z.m[i * d + i] = Bound::LE_ZERO;
        }
        let mut rows = IndexSet::new(d);
        let mut cols = IndexSet::new(d);
        for c in self.cons.iter() {
            z.m[c.i as usize * d + c.j as usize] = c.b;
            rows.insert(c.i as usize);
            cols.insert(c.j as usize);
        }
        z.close_live(&rows, &cols);
    }
}

/// A set of matrix indices, one bit each, iterated in ascending order.
/// Stored inline up to 256 indices — every dimension the engine builds
/// — and on the heap beyond, so the closure kernels allocate nothing.
struct IndexSet {
    inline: [u64; 4],
    heap: Vec<u64>,
}

impl IndexSet {
    /// The empty set over indices `0..dim`.
    fn new(dim: usize) -> IndexSet {
        let words = dim.div_ceil(64);
        IndexSet {
            inline: [0; 4],
            heap: if words > 4 {
                vec![0; words]
            } else {
                Vec::new()
            },
        }
    }

    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }

    fn insert(&mut self, i: usize) {
        let words = if self.heap.is_empty() {
            &mut self.inline[..]
        } else {
            &mut self.heap[..]
        };
        words[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// The members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// A free-list of [`Dbm`] allocations: successor computation clones
/// zones constantly, and recycling the bound-matrix `Vec`s through a
/// per-worker pool removes that allocation traffic from the hot path
/// (workers never share a pool, so no synchronization is involved).
#[derive(Default)]
pub struct DbmPool {
    free: Vec<Dbm>,
}

impl DbmPool {
    /// An empty pool.
    pub fn new() -> DbmPool {
        DbmPool::default()
    }

    /// Clones `src`, reusing a pooled allocation when available.
    pub fn clone_dbm(&mut self, src: &Dbm) -> Dbm {
        match self.free.pop() {
            Some(mut z) => {
                z.copy_from(src);
                z
            }
            None => src.clone(),
        }
    }

    /// Returns a no-longer-needed zone's allocation to the pool.
    ///
    /// Capped: bulk refills (the engine recycles whole expanded
    /// frontiers, thousands of zones on real runs) would otherwise pin
    /// peak-frontier memory in one worker's free list for the rest of
    /// the search; beyond the cap the allocation is simply dropped.
    pub fn recycle(&mut self, z: Dbm) {
        const MAX_POOLED: usize = 256;
        if self.free.len() < MAX_POOLED {
            self.free.push(z);
        }
    }
}
