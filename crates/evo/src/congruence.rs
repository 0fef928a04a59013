//! Congruence filtering (paper §4.3).
//!
//! Instruction forms that the experiment set cannot distinguish are
//! merged into congruence classes; the evolutionary algorithm then only
//! works on class representatives, shrinking the search space (the paper
//! reports 53–69 % of forms merged away).
//!
//! Two forms `iA`, `iB` are congruent iff their individual throughputs
//! are equal and, for every third form `iC` and every multiset shape
//! `(m, n)` present in the experiment set, `{iA ↦ m, iC ↦ n}` and
//! `{iB ↦ m, iC ↦ n}` have equal measured throughput — all equalities up
//! to the symmetric relative difference `|t1 − t2| / (|t1 + t2| / 2) < ε`.
//!
//! All internal maps are `BTreeMap`s, so every iteration order here is a
//! function of the input alone: fixed-seed pipeline runs are bit-identical
//! by construction, not by the accident of a hash seed.

use pmevo_core::{Experiment, InstId, MeasuredExperiment, ThreeLevelMapping};
use std::collections::BTreeMap;

/// Checks throughput equality up to the paper's symmetric relative
/// difference bound `ε` — exposed for the adaptive pipeline's
/// pairwise-verified congruence seeding.
pub fn throughput_close(t1: f64, t2: f64, epsilon: f64) -> bool {
    let denom = (t1 + t2).abs() / 2.0;
    if denom == 0.0 {
        return true;
    }
    (t1 - t2).abs() / denom < epsilon
}

use throughput_close as close;

/// A partition of the instruction universe into congruence classes.
///
/// # Example
///
/// ```
/// use pmevo_core::{Experiment, InstId, MeasuredExperiment};
/// use pmevo_evo::CongruencePartition;
///
/// // Two identical instructions and one different one.
/// let data = vec![
///     MeasuredExperiment::new(Experiment::singleton(InstId(0)), 1.0),
///     MeasuredExperiment::new(Experiment::singleton(InstId(1)), 1.0),
///     MeasuredExperiment::new(Experiment::singleton(InstId(2)), 2.0),
///     MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(1), 1), 2.0),
///     MeasuredExperiment::new(Experiment::pair(InstId(0), 1, InstId(2), 1), 2.0),
///     MeasuredExperiment::new(Experiment::pair(InstId(1), 1, InstId(2), 1), 2.0),
/// ];
/// let ids = vec![InstId(0), InstId(1), InstId(2)];
/// let part = CongruencePartition::compute(&ids, &data, 0.05);
/// assert_eq!(part.num_classes(), 2);
/// assert_eq!(part.representative(InstId(1)), part.representative(InstId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct CongruencePartition {
    /// Class representative per universe position.
    repr: BTreeMap<InstId, InstId>,
    /// The representatives, in first-seen order.
    reps: Vec<InstId>,
    universe: Vec<InstId>,
}

impl CongruencePartition {
    /// Computes the partition greedily: each form joins the class of the
    /// first representative it is congruent with (congruence is not
    /// transitive under measurement noise, so a canonical greedy pass is
    /// used, like the paper's implementation).
    ///
    /// # Panics
    ///
    /// Panics if a singleton measurement is missing for some id in
    /// `universe`, or `epsilon` is not positive.
    pub fn compute(
        universe: &[InstId],
        measurements: &[MeasuredExperiment],
        epsilon: f64,
    ) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");

        // Index measurements: singleton throughputs and pair signatures.
        let mut singleton: BTreeMap<InstId, f64> = BTreeMap::new();
        // (inst) -> Vec of ((other, m_self, n_other), throughput)
        let mut pair_sig: BTreeMap<InstId, BTreeMap<(InstId, u32, u32), f64>> = BTreeMap::new();
        for me in measurements {
            let counts = me.experiment.counts();
            match counts {
                [(i, 1)] => {
                    singleton.insert(*i, me.throughput);
                }
                [(a, m), (b, n)] => {
                    pair_sig
                        .entry(*a)
                        .or_default()
                        .insert((*b, *m, *n), me.throughput);
                    pair_sig
                        .entry(*b)
                        .or_default()
                        .insert((*a, *n, *m), me.throughput);
                }
                _ => {} // longer experiments carry no congruence info here
            }
        }
        for id in universe {
            assert!(
                singleton.contains_key(id),
                "missing singleton measurement for {id}"
            );
        }

        let congruent = |a: InstId, b: InstId| -> bool {
            if !close(singleton[&a], singleton[&b], epsilon) {
                return false;
            }
            let empty = BTreeMap::new();
            let sa = pair_sig.get(&a).unwrap_or(&empty);
            let sb = pair_sig.get(&b).unwrap_or(&empty);
            for (&(c, m, n), &ta) in sa {
                if c == b {
                    continue; // experiments combining a with b directly
                }
                if let Some(&tb) = sb.get(&(c, m, n)) {
                    if !close(ta, tb, epsilon) {
                        return false;
                    }
                }
            }
            true
        };

        let mut reps: Vec<InstId> = Vec::new();
        let mut repr: BTreeMap<InstId, InstId> = BTreeMap::new();
        for &id in universe {
            match reps.iter().copied().find(|&r| congruent(r, id)) {
                Some(r) => {
                    repr.insert(id, r);
                }
                None => {
                    reps.push(id);
                    repr.insert(id, id);
                }
            }
        }
        CongruencePartition {
            repr,
            reps,
            universe: universe.to_vec(),
        }
    }

    /// The trivial partition where every form is its own class (used for
    /// the "filtering disabled" ablation).
    pub fn identity(universe: &[InstId]) -> Self {
        CongruencePartition {
            repr: universe.iter().map(|&i| (i, i)).collect(),
            reps: universe.to_vec(),
            universe: universe.to_vec(),
        }
    }

    /// Builds a partition from an explicit representative map — the
    /// constructor behind the adaptive pipeline's pairwise-verified
    /// congruence seeding, where merges are decided by targeted
    /// measurements instead of the full §4.1 corpus. Ids missing from
    /// `repr` represent themselves.
    ///
    /// # Panics
    ///
    /// Panics if a representative is not in `universe` or is itself
    /// mapped to another form (chains are not resolved).
    pub fn from_representatives(universe: &[InstId], repr: BTreeMap<InstId, InstId>) -> Self {
        let mut full: BTreeMap<InstId, InstId> = BTreeMap::new();
        for &id in universe {
            let r = repr.get(&id).copied().unwrap_or(id);
            assert!(
                repr.get(&r).copied().unwrap_or(r) == r,
                "representative {r} of {id} is itself merged away"
            );
            full.insert(id, r);
        }
        let mut reps: Vec<InstId> = Vec::new();
        for &id in universe {
            let r = full[&id];
            assert!(
                universe.contains(&r),
                "representative {r} of {id} is outside the universe"
            );
            if !reps.contains(&r) {
                reps.push(r);
            }
        }
        CongruencePartition {
            repr: full,
            reps,
            universe: universe.to_vec(),
        }
    }

    /// The representative of `id`'s class.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the partitioned universe.
    pub fn representative(&self, id: InstId) -> InstId {
        self.repr[&id]
    }

    /// All class representatives, in first-seen order.
    pub fn representatives(&self) -> &[InstId] {
        &self.reps
    }

    /// Number of congruence classes.
    pub fn num_classes(&self) -> usize {
        self.reps.len()
    }

    /// The partitioned universe.
    pub fn universe(&self) -> &[InstId] {
        &self.universe
    }

    /// Fraction of forms merged into another form's class — the
    /// "insns found congruent" row of paper Table 2.
    pub fn merged_fraction(&self) -> f64 {
        1.0 - self.reps.len() as f64 / self.universe.len() as f64
    }

    /// Members of each class, keyed by representative, in deterministic
    /// (ascending-representative) iteration order.
    pub fn classes(&self) -> BTreeMap<InstId, Vec<InstId>> {
        let mut map: BTreeMap<InstId, Vec<InstId>> = BTreeMap::new();
        for &id in &self.universe {
            map.entry(self.repr[&id]).or_default().push(id);
        }
        map
    }
}

/// The dense universe evolution runs on: one id per congruence class.
///
/// Representative `k` of a [`CongruencePartition`] (first-seen order)
/// becomes dense id `k`. Training experiments entirely over
/// representatives are remapped to dense ids; experiments touching a
/// merged-away form train nothing, since its representative carries the
/// class. A dense mapping expands back to the full universe by giving
/// every form its representative's decomposition.
#[derive(Debug, Clone)]
pub struct RepUniverse {
    partition: CongruencePartition,
    /// Dense id of every representative.
    index: BTreeMap<InstId, u32>,
    /// Singleton throughput per dense id.
    indiv_tp: Vec<f64>,
}

impl RepUniverse {
    /// The dense universe of `partition`; `indiv_tp[id.index()]` is the
    /// measured singleton throughput of form `id`.
    ///
    /// # Panics
    ///
    /// Panics if `indiv_tp` misses a representative.
    pub fn new(partition: CongruencePartition, indiv_tp: &[f64]) -> Self {
        let reps = partition.representatives();
        let index = reps
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, k as u32))
            .collect();
        let indiv_tp = reps.iter().map(|&id| indiv_tp[id.index()]).collect();
        RepUniverse {
            partition,
            index,
            indiv_tp,
        }
    }

    /// The partition this universe was built from.
    pub fn partition(&self) -> &CongruencePartition {
        &self.partition
    }

    /// The representatives in dense-id order (original ids).
    pub fn reps(&self) -> &[InstId] {
        self.partition.representatives()
    }

    /// Singleton throughput per dense id.
    pub fn indiv_tp(&self) -> &[f64] {
        &self.indiv_tp
    }

    /// Whether every form of `e` is a representative.
    pub fn covers(&self, e: &Experiment) -> bool {
        e.iter().all(|(i, _)| self.index.contains_key(&i))
    }

    /// `e` over dense ids.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not [covered](Self::covers).
    pub fn to_dense(&self, e: &Experiment) -> Experiment {
        e.map_insts(|i| InstId(self.index[&i]))
    }

    /// The covered experiments of `measured`, remapped to dense ids.
    pub fn dense_corpus(&self, measured: &[MeasuredExperiment]) -> Vec<MeasuredExperiment> {
        measured
            .iter()
            .filter(|me| self.covers(&me.experiment))
            .map(|me| MeasuredExperiment::new(self.to_dense(&me.experiment), me.throughput))
            .collect()
    }

    /// Expands a dense mapping to the full universe: every form carries
    /// its representative's decomposition.
    pub fn expand(&self, dense: &ThreeLevelMapping) -> ThreeLevelMapping {
        let decomp = self
            .partition
            .universe()
            .iter()
            .map(|&id| {
                let rep = self.partition.representative(id);
                dense.decomposition(InstId(self.index[&rep])).to_vec()
            })
            .collect();
        ThreeLevelMapping::new(dense.num_ports(), decomp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::Experiment;

    fn measured(e: Experiment, t: f64) -> MeasuredExperiment {
        MeasuredExperiment::new(e, t)
    }

    /// Builds the full §4.1 experiment set for a synthetic throughput
    /// oracle and returns the partition.
    fn partition_for(tps: &[f64], pair_tp: impl Fn(usize, usize) -> f64) -> CongruencePartition {
        let n = tps.len();
        let ids: Vec<InstId> = (0..n as u32).map(InstId).collect();
        let mut data = Vec::new();
        for i in 0..n {
            data.push(measured(Experiment::singleton(ids[i]), tps[i]));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                data.push(measured(Experiment::pair(ids[i], 1, ids[j], 1), pair_tp(i, j)));
            }
        }
        CongruencePartition::compute(&ids, &data, 0.05)
    }

    #[test]
    fn identical_behaviour_merges() {
        // i0, i1 identical; i2 distinct by throughput.
        let p = partition_for(&[1.0, 1.0, 3.0], |_, _| 2.0);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.representative(InstId(1)), InstId(0));
        assert_eq!(p.representative(InstId(2)), InstId(2));
        assert!((p.merged_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_singleton_but_different_pairs_do_not_merge() {
        // i0 and i1 both have tp 1, but they interact differently with i2.
        let p = partition_for(&[1.0, 1.0, 1.0], |i, j| {
            if (i, j) == (0, 2) {
                2.0
            } else if (i, j) == (1, 2) {
                1.0 // i1 overlaps i2 differently
            } else {
                2.0
            }
        });
        assert_ne!(p.representative(InstId(0)), p.representative(InstId(1)));
    }

    #[test]
    fn epsilon_tolerates_measurement_noise() {
        let n = 3;
        let ids: Vec<InstId> = (0..n).map(InstId).collect();
        let mut data = vec![
            measured(Experiment::singleton(ids[0]), 1.000),
            measured(Experiment::singleton(ids[1]), 1.004), // 0.4% apart
            measured(Experiment::singleton(ids[2]), 5.0),
        ];
        for i in 0..3usize {
            for j in (i + 1)..3 {
                let t = if i == 2 || j == 2 { 5.0 } else { 2.0 };
                data.push(measured(
                    Experiment::pair(InstId(i as u32), 1, InstId(j as u32), 1),
                    t,
                ));
            }
        }
        let p = CongruencePartition::compute(&ids, &data, 0.05);
        assert_eq!(p.representative(InstId(1)), InstId(0));
    }

    #[test]
    fn identity_partition_keeps_everything() {
        let ids: Vec<InstId> = (0..4).map(InstId).collect();
        let p = CongruencePartition::identity(&ids);
        assert_eq!(p.num_classes(), 4);
        assert_eq!(p.merged_fraction(), 0.0);
        assert_eq!(p.classes().len(), 4);
    }

    #[test]
    fn classes_cover_the_universe() {
        let p = partition_for(&[1.0, 1.0, 1.0, 2.0], |_, _| 2.0);
        let classes = p.classes();
        let covered: usize = classes.values().map(|v| v.len()).sum();
        assert_eq!(covered, 4);
        assert_eq!(p.universe().len(), 4);
    }

    #[test]
    #[should_panic(expected = "missing singleton")]
    fn missing_singleton_measurement_panics() {
        let ids = vec![InstId(0)];
        CongruencePartition::compute(&ids, &[], 0.05);
    }
}
