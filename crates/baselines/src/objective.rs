//! Shared objective functions for the baseline encoders.
//!
//! Each objective exists in two forms: over an [`Encoding`] (the
//! convenient entry point) and directly over a raw codes slice (no
//! `Encoding::new` validation, no intruder-set allocation). The codes forms
//! iterate constraints in the same order and sum the same terms, so they
//! return bit-identical `f64` values.
//!
//! The NOVA and annealing proposal loops price candidates through a third
//! form, the crate-private [`FaceTable`]: the satisfied weight kept up to
//! date incrementally, so a swap or move costs work only on the faces it
//! touches instead of a full [`satisfied_weight_codes`] rescan of every
//! constraint against all `n` codes. Its values equal that rescan bit for
//! bit (see [`FaceTable`] for why).

use picola_constraints::{CodeCube, Encoding, GroupConstraint, SymbolSet};
use picola_core::{evaluate_encoding_cached, EvalContext, EvalOptions, RefineCand};
use picola_logic::WordSet;

/// The paper's evaluation objective: total minimized cube count of the
/// encoded constraint functions, priced through the cached evaluation
/// pipeline. Callers that probe many encodings (the ENC-style loop) thread
/// one long-lived [`EvalContext`] through so repeat constraint functions
/// hit the memo instead of re-running ESPRESSO; a swap of two symbols
/// leaves every constraint containing neither untouched, so hit rates grow
/// with the constraint count.
pub fn minimized_cubes(
    enc: &Encoding,
    constraints: &[GroupConstraint],
    opts: &EvalOptions,
    ctx: &mut EvalContext,
) -> usize {
    evaluate_encoding_cached(enc, constraints, opts, ctx).total_cubes
}

/// The conventional objective NOVA-style tools maximize: total weight of the
/// *satisfied* face constraints (violated ones contribute nothing — exactly
/// the blindness the paper criticizes).
pub fn satisfied_weight(enc: &Encoding, constraints: &[GroupConstraint]) -> f64 {
    satisfied_weight_codes(enc.codes(), enc.nv(), constraints)
}

/// [`satisfied_weight`] computed directly over a codes slice. The caller
/// guarantees distinct in-range codes (proposal loops preserve that by
/// construction).
pub fn satisfied_weight_codes(
    codes: &[u32],
    nv: usize,
    constraints: &[GroupConstraint],
) -> f64 {
    constraints
        .iter()
        .filter(|c| !c.is_trivial() && codes_satisfy(codes, nv, c.members()))
        .map(|c| c.weight() as f64 * (c.len() as f64 - 1.0))
        .sum()
}

/// Whether the face constraint `members` is satisfied under `codes`: its
/// members' supercube contains no non-member code. Equals
/// `Encoding::satisfies` without building the intruder set.
pub fn codes_satisfy(codes: &[u32], nv: usize, members: &SymbolSet) -> bool {
    let mut it = members.iter();
    let Some(first) = it.next() else {
        return true; // empty faces are trivially embedded
    };
    let mut and = codes[first];
    let mut or = codes[first];
    for s in it {
        and &= codes[s];
        or |= codes[s];
    }
    let full = ((1u64 << nv) - 1) as u32;
    let fixed = full & !(and ^ or);
    let values = and & fixed;
    codes
        .iter()
        .enumerate()
        .all(|(s, &c)| members.contains(s) || (c ^ values) & fixed != 0)
}

/// One non-trivial face constraint's satisfaction state.
#[derive(Debug)]
struct Face {
    /// Member symbols, ascending.
    members: Vec<usize>,
    /// The face's term of the satisfied weight: `weight() × (len() − 1)`.
    weight: u64,
    /// Supercube of the members' codes.
    cube: CodeCube,
    /// Non-member codes inside `cube`; the face is satisfied iff zero.
    intruders: usize,
}

impl Face {
    fn satisfied(&self) -> bool {
        self.intruders == 0
    }

    /// The supercube of the members' `codes` with member `s` at `code`.
    fn cube_with(&self, codes: &[u32], nv: usize, s: usize, code: u32) -> CodeCube {
        supercube(&self.members, nv, |m| if m == s { code } else { codes[m] })
    }

    /// Recomputes the supercube and intruder count from `codes` and the
    /// `occupied` code words.
    fn refresh(&mut self, codes: &[u32], occupied: &WordSet, nv: usize) {
        self.cube = supercube(&self.members, nv, |m| codes[m]);
        self.intruders = occupied_in(occupied.words(), self.cube) - self.members.len();
    }
}

/// The satisfied face weight of a code vector, maintained incrementally
/// under [`RefineCand`] swaps and moves.
///
/// Per non-trivial constraint (in constraint order) the table keeps the
/// member list, the integer weight term, the members' supercube and the
/// number of intruders (non-member codes inside it); per symbol, the
/// ascending list of faces holding it; the occupied code words; and the
/// satisfied weight as an integer.
///
/// A candidate only touches some faces:
///
/// - `Swap(i, j)`: the faces holding exactly one of `i` and `j`. A face
///   holding both keeps its member code set, a face holding neither its
///   non-member code set; either way its supercube and intruders stand.
/// - `Move(i, w)`: the faces holding `i` get a new supercube and a recount.
///   Every other face keeps its supercube, and its intruder count changes by
///   `[w ∈ cube] − [old ∈ cube]`.
///
/// A recount never scans the codes: every member code lies inside its own
/// supercube, so the intruders are the occupied words inside the cube minus
/// the member count, a popcount of the occupancy words under the cube's
/// mask ([`occupied_in`]).
///
/// Every weight term is an integer, so the `f64` sum in
/// [`satisfied_weight_codes`] is exact (all partial sums stay far below
/// 2^53) and the integer total converted to `f64` equals it bit for bit
/// ([`as_weight`]: zero converts to the empty sum's `-0.0`).
/// Callers comparing objectives therefore see the same values, and make the
/// same decisions, as with the full rescan.
#[derive(Debug)]
pub(crate) struct FaceTable {
    nv: usize,
    codes: Vec<u32>,
    faces: Vec<Face>,
    /// Per symbol: ascending indices into `faces` of the faces holding it.
    faces_of: Vec<Vec<usize>>,
    /// Occupied code words over the `2^nv` space.
    occupied: WordSet,
    /// Sum of the satisfied faces' weight terms.
    satisfied: u64,
}

/// The supercube of `members` under `code_of`.
fn supercube(members: &[usize], nv: usize, code_of: impl Fn(usize) -> u32) -> CodeCube {
    let mut and = u32::MAX;
    let mut or = 0u32;
    for &s in members {
        let c = code_of(s);
        and &= c;
        or |= c;
    }
    let full = ((1u64 << nv) - 1) as u32;
    let fixed = full & !(and ^ or);
    CodeCube {
        fixed,
        values: and & fixed,
        nv,
    }
}

/// Number of words set in `occupied` (a bitset over the `2^nv` code space)
/// that lie inside `cube`. The low six code bits select a bit inside a
/// word: the cube's in-word mask is built by shift-OR doubling over its
/// free low bits. The remaining bits select the word, so the mask applies to
/// every word whose index matches the cube on those bits.
fn occupied_in(occupied: &[u64], cube: CodeCube) -> usize {
    let mut mask = 1u64 << (cube.values & cube.fixed & 63);
    for b in 0..cube.nv.min(6) {
        if cube.fixed >> b & 1 == 0 {
            mask |= mask << (1u32 << b);
        }
    }
    let hi_fixed = (cube.fixed >> 6) as usize;
    let hi_values = (cube.values >> 6) as usize & hi_fixed;
    occupied
        .iter()
        .enumerate()
        .filter(|&(wi, _)| (wi ^ hi_values) & hi_fixed == 0)
        .map(|(_, &w)| (w & mask).count_ones() as usize)
        .sum()
}

/// Calls `f(k, in_a)` for every index in exactly one of the ascending
/// lists `a` and `b`, in ascending order; `in_a` tells which list holds it.
fn for_each_in_one(a: &[usize], b: &[usize], mut f: impl FnMut(usize, bool)) {
    let (mut x, mut y) = (0, 0);
    loop {
        match (a.get(x), b.get(y)) {
            (Some(&p), Some(&q)) if p == q => {
                x += 1;
                y += 1;
            }
            (Some(&p), Some(&q)) if p < q => {
                f(p, true);
                x += 1;
            }
            (_, Some(&q)) => {
                f(q, false);
                y += 1;
            }
            (Some(&p), None) => {
                f(p, true);
                x += 1;
            }
            (None, None) => break,
        }
    }
}

impl FaceTable {
    /// Builds the table for distinct in-range `codes` against every
    /// non-trivial constraint of `constraints`.
    pub(crate) fn build(codes: Vec<u32>, nv: usize, constraints: &[GroupConstraint]) -> FaceTable {
        let mut occupied = WordSet::new(1usize << nv);
        for &c in &codes {
            occupied.insert(c as usize);
        }
        let mut faces_of = vec![Vec::new(); codes.len()];
        let mut faces = Vec::new();
        let mut satisfied = 0u64;
        for c in constraints.iter().filter(|c| !c.is_trivial()) {
            let members = c.members().to_vec();
            for &s in &members {
                faces_of[s].push(faces.len());
            }
            let mut face = Face {
                members,
                weight: (c.weight() * (c.len() - 1)) as u64,
                cube: CodeCube {
                    fixed: 0,
                    values: 0,
                    nv,
                },
                intruders: 0,
            };
            face.refresh(&codes, &occupied, nv);
            if face.satisfied() {
                satisfied += face.weight;
            }
            faces.push(face);
        }
        FaceTable {
            nv,
            codes,
            faces,
            faces_of,
            occupied,
            satisfied,
        }
    }

    /// Code length in bits.
    pub(crate) fn nv(&self) -> usize {
        self.nv
    }

    /// The current code vector.
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Consumes the table, returning the final code vector.
    pub(crate) fn into_codes(self) -> Vec<u32> {
        self.codes
    }

    /// The occupied code words, packed as `u64` words over `2^nv` bits.
    pub(crate) fn occupied_words(&self) -> &[u64] {
        self.occupied.words()
    }

    /// Whether code word `w` is unassigned.
    pub(crate) fn is_free(&self, w: u32) -> bool {
        !self.occupied.contains(w as usize)
    }

    /// The satisfied weight of the current codes; equals
    /// [`satisfied_weight_codes`] on them bit for bit.
    pub(crate) fn weight(&self) -> f64 {
        as_weight(self.satisfied)
    }

    /// The satisfied weight after `cand`, without changing the table. A
    /// `Move` must target a free word.
    pub(crate) fn eval(&self, cand: RefineCand) -> f64 {
        let mut total = self.satisfied;
        match cand {
            RefineCand::Swap(i, j) => {
                let (ci, cj) = (self.codes[i], self.codes[j]);
                for_each_in_one(&self.faces_of[i], &self.faces_of[j], |k, holds_i| {
                    // The held symbol takes the other one's code; occupancy
                    // is unchanged.
                    let (s, code) = if holds_i { (i, cj) } else { (j, ci) };
                    let face = &self.faces[k];
                    let cube = face.cube_with(&self.codes, self.nv, s, code);
                    let intruders = occupied_in(self.occupied.words(), cube) - face.members.len();
                    settle(&mut total, face.weight, face.satisfied(), intruders == 0);
                });
            }
            RefineCand::Move(i, w) => {
                let old = self.codes[i];
                debug_assert!(self.is_free(w), "a move must target a free word");
                let mut held = self.faces_of[i].iter().peekable();
                for (k, face) in self.faces.iter().enumerate() {
                    let intruders = if held.next_if(|&&h| h == k).is_some() {
                        // `w` enters the occupied set inside the new cube
                        // (it is a member's code); `old` leaves it.
                        let cube = face.cube_with(&self.codes, self.nv, i, w);
                        occupied_in(self.occupied.words(), cube) + 1
                            - usize::from(cube.contains(old))
                            - face.members.len()
                    } else {
                        face.intruders + usize::from(face.cube.contains(w))
                            - usize::from(face.cube.contains(old))
                    };
                    settle(&mut total, face.weight, face.satisfied(), intruders == 0);
                }
            }
        }
        as_weight(total)
    }

    /// Commits `cand`: the codes, the occupancy, and every touched face's
    /// supercube and intruder count. A `Move` must target a free word.
    pub(crate) fn apply(&mut self, cand: RefineCand) {
        match cand {
            RefineCand::Swap(i, j) => {
                self.codes.swap(i, j);
                for_each_in_one(&self.faces_of[i], &self.faces_of[j], |k, _| {
                    let face = &mut self.faces[k];
                    let was = face.satisfied();
                    face.refresh(&self.codes, &self.occupied, self.nv);
                    settle(&mut self.satisfied, face.weight, was, face.satisfied());
                });
            }
            RefineCand::Move(i, w) => {
                let old = self.codes[i];
                self.codes[i] = w;
                self.occupied.remove(old as usize);
                self.occupied.insert(w as usize);
                let mut held = self.faces_of[i].iter().peekable();
                for (k, face) in self.faces.iter_mut().enumerate() {
                    let was = face.satisfied();
                    if held.next_if(|&&h| h == k).is_some() {
                        face.refresh(&self.codes, &self.occupied, self.nv);
                    } else {
                        face.intruders = face.intruders + usize::from(face.cube.contains(w))
                            - usize::from(face.cube.contains(old));
                    }
                    settle(&mut self.satisfied, face.weight, was, face.satisfied());
                }
            }
        }
    }
}

/// The integer satisfied weight `total` as the `f64` the rescan returns.
/// With no satisfied face that is the empty `f64` sum, which is `-0.0`, so
/// even the sign of zero agrees.
fn as_weight(total: u64) -> f64 {
    if total == 0 {
        std::iter::empty::<f64>().sum()
    } else {
        total as f64
    }
}

/// Moves a face's `weight` term into or out of `total` when its status
/// changes from satisfied `was` to satisfied `now`.
fn settle(total: &mut u64, weight: u64, was: bool, now: bool) {
    match (was, now) {
        (true, false) => *total -= weight,
        (false, true) => *total += weight,
        _ => {}
    }
}

/// Number of satisfied seed dichotomies over all non-trivial constraints —
/// the alternative conventional objective.
pub fn satisfied_dichotomies(enc: &Encoding, constraints: &[GroupConstraint]) -> usize {
    let mut count = 0;
    for c in constraints.iter().filter(|c| !c.is_trivial()) {
        let sc = enc.supercube(c.members());
        for s in 0..enc.num_symbols() {
            if !c.members().contains(s) && !sc.contains(enc.code(s)) {
                count += 1;
            }
        }
    }
    count
}

/// Weighted code-adjacency bonus used by the `io_hybrid` flavour: each pair
/// `(i, j, w)` contributes `w · (nv − hamming(code_i, code_j)) / nv`,
/// rewarding short distances between states that the output (next-state)
/// structure wants close.
pub fn adjacency_bonus(enc: &Encoding, adjacency: &[(usize, usize, f64)]) -> f64 {
    adjacency_bonus_codes(enc.codes(), enc.nv(), adjacency)
}

/// [`adjacency_bonus`] computed directly over a codes slice.
pub fn adjacency_bonus_codes(
    codes: &[u32],
    nv: usize,
    adjacency: &[(usize, usize, f64)],
) -> f64 {
    let nv = nv as f64;
    adjacency
        .iter()
        .map(|&(i, j, w)| {
            let d = (codes[i] ^ codes[j]).count_ones() as f64;
            w * (nv - d) / nv
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use picola_constraints::SymbolSet;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    fn groups(n: usize, gs: &[&[usize]]) -> Vec<GroupConstraint> {
        gs.iter()
            .map(|g| GroupConstraint::new(SymbolSet::from_members(n, g.iter().copied())))
            .collect()
    }

    #[test]
    fn satisfied_weight_counts_only_satisfied() {
        let enc = Encoding::natural(4);
        let cs = groups(4, &[&[0, 1], &[0, 3]]);
        // {0,1} = face 0-, satisfied; {0,3} spans everything, violated
        assert_eq!(satisfied_weight(&enc, &cs), 1.0);
    }

    #[test]
    fn dichotomy_count_is_partial_credit() {
        let enc = Encoding::natural(4);
        let cs = groups(4, &[&[0, 3]]);
        // supercube of 00 and 11 is --: no outsider excluded
        assert_eq!(satisfied_dichotomies(&enc, &cs), 0);
        let cs2 = groups(4, &[&[0, 1]]);
        assert_eq!(satisfied_dichotomies(&enc, &cs2), 2);
    }

    #[test]
    fn codes_forms_are_bit_identical_to_encoding_forms() {
        let enc = Encoding::new(3, vec![0, 1, 2, 3, 4, 6, 7]).unwrap();
        let cs = groups(7, &[&[0, 1], &[0, 6], &[2, 3, 4], &[1, 5]]);
        assert_eq!(
            satisfied_weight(&enc, &cs),
            satisfied_weight_codes(enc.codes(), enc.nv(), &cs)
        );
        for c in &cs {
            assert_eq!(
                enc.satisfies(c.members()),
                codes_satisfy(enc.codes(), enc.nv(), c.members()),
                "{c}"
            );
        }
        let adj = vec![(0usize, 5usize, 2.5f64), (1, 2, 0.5)];
        assert_eq!(
            adjacency_bonus(&enc, &adj),
            adjacency_bonus_codes(enc.codes(), enc.nv(), &adj)
        );
    }

    /// `codes` after `cand`.
    fn patched(codes: &[u32], cand: RefineCand) -> Vec<u32> {
        let mut out = codes.to_vec();
        match cand {
            RefineCand::Swap(i, j) => out.swap(i, j),
            RefineCand::Move(i, w) => out[i] = w,
        }
        out
    }

    /// Random faces over `n` symbols with codes `codes`: half embedded (the
    /// symbols inside a small random cube around one code, satisfied at the
    /// start and with free words inside), half arbitrary subsets; weights
    /// up to 5; plus a singleton and the full set, which are trivial.
    fn random_faces(rng: &mut StdRng, codes: &[u32], nv: usize) -> Vec<GroupConstraint> {
        let n = codes.len();
        let mut out = Vec::new();
        for f in 0..24 {
            let members: Vec<usize> = if f % 2 == 0 {
                let seed = codes[rng.random_range(0..n)];
                let mut free = 0u32;
                for _ in 0..rng.random_range(1..4usize) {
                    free |= 1 << rng.random_range(0..nv);
                }
                (0..n).filter(|&s| (codes[s] ^ seed) & !free == 0).collect()
            } else {
                let len = rng.random_range(2..7usize);
                (0..len).map(|_| rng.random_range(0..n)).collect()
            };
            let mut c = GroupConstraint::new(SymbolSet::from_members(n, members));
            c.set_weight(rng.random_range(1..6usize));
            out.push(c);
        }
        out.push(GroupConstraint::new(SymbolSet::from_members(n, [0])));
        out.push(GroupConstraint::new(SymbolSet::from_members(n, 0..n)));
        out
    }

    #[test]
    fn face_table_matches_the_full_rescan() {
        let mut rng = StdRng::seed_from_u64(0xFACE_7AB1E);
        // One partial word, one word, two words and four words of codes.
        for nv in [3usize, 5, 6, 7, 8] {
            let size = 1usize << nv;
            let n = size / 2 + 1;
            let mut words: Vec<u32> = (0..size as u32).collect();
            words.shuffle(&mut rng);
            let codes = words[..n].to_vec();
            let cs = random_faces(&mut rng, &codes, nv);
            let mut table = FaceTable::build(codes, nv, &cs);
            assert_eq!(
                table.weight().to_bits(),
                satisfied_weight_codes(table.codes(), nv, &cs).to_bits()
            );
            let (mut swap_changes, mut move_changes) = (0, 0);
            for step in 0..600 {
                // Proposals centre on one face, a satisfied one half the
                // time, so they keep making and breaking faces.
                let sat: Vec<&Face> = table.faces.iter().filter(|f| f.satisfied()).collect();
                let face = if !sat.is_empty() && rng.random_bool(0.5) {
                    sat[rng.random_range(0..sat.len())]
                } else {
                    &table.faces[rng.random_range(0..table.faces.len())]
                };
                let member = face.members[rng.random_range(0..face.members.len())];
                let cand = if step % 2 == 0 {
                    // A third of the swaps pair two members of the face,
                    // a third a member with any symbol, a third any two.
                    let (i, j) = match step / 2 % 3 {
                        0 => {
                            let k = face.members.iter().position(|&m| m == member).unwrap_or(0);
                            (member, face.members[(k + 1) % face.members.len()])
                        }
                        1 => (member, (member + rng.random_range(1..n)) % n),
                        _ => {
                            let i = rng.random_range(0..n);
                            (i, (i + rng.random_range(1..n)) % n)
                        }
                    };
                    RefineCand::Swap(i, j)
                } else {
                    // Half the moves target a free word inside the face's
                    // supercube, the rest any free word; half move one of
                    // its members out.
                    let free: Vec<u32> = (0..size as u32).filter(|&w| table.is_free(w)).collect();
                    let inside: Vec<u32> = free
                        .iter()
                        .copied()
                        .filter(|&w| face.cube.contains(w))
                        .collect();
                    let pool = if inside.is_empty() || rng.random_bool(0.5) {
                        &free
                    } else {
                        &inside
                    };
                    let i = if rng.random_bool(0.5) {
                        member
                    } else {
                        rng.random_range(0..n)
                    };
                    RefineCand::Move(i, pool[rng.random_range(0..pool.len())])
                };
                let want = satisfied_weight_codes(&patched(table.codes(), cand), nv, &cs);
                let got = table.eval(cand);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "nv={nv} step {step}: eval {cand:?}"
                );
                if got != table.weight() {
                    match cand {
                        RefineCand::Swap(..) => swap_changes += 1,
                        RefineCand::Move(..) => move_changes += 1,
                    }
                }
                let expect_codes = patched(table.codes(), cand);
                table.apply(cand);
                assert_eq!(
                    table.codes(),
                    expect_codes.as_slice(),
                    "nv={nv} step {step}"
                );
                let want = satisfied_weight_codes(table.codes(), nv, &cs);
                assert_eq!(
                    table.weight().to_bits(),
                    want.to_bits(),
                    "nv={nv} step {step}: weight after {cand:?}"
                );
                for w in 0..size as u32 {
                    assert_eq!(
                        table.is_free(w),
                        !table.codes().contains(&w),
                        "nv={nv} word {w}"
                    );
                }
            }
            // The sequence must actually change the objective both ways.
            assert!(
                swap_changes > 10 && move_changes > 10,
                "nv={nv}: only {swap_changes} swaps and {move_changes} moves changed the weight"
            );
        }
    }

    #[test]
    fn adjacency_prefers_close_codes() {
        let close = Encoding::new(2, vec![0b00, 0b01, 0b10, 0b11]).unwrap();
        let adj = vec![(0usize, 1usize, 1.0f64)];
        let far = Encoding::new(2, vec![0b00, 0b11, 0b10, 0b01]).unwrap();
        assert!(adjacency_bonus(&close, &adj) > adjacency_bonus(&far, &adj));
    }
}
