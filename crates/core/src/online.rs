//! Streaming classification: one interval at a time.
//!
//! The batch API ([`crate::classify`]) consumes a finished
//! [`eleph_flow::BandwidthMatrix`]; a traffic-engineering controller
//! instead sees one measurement interval at a time and must emit the
//! elephant set before the next interval lands. [`OnlineClassifier`] is
//! that incremental form: feed it interval snapshots, get the current
//! elephant set back. Its output is bit-identical to the batch
//! classifier (pinned by tests), so experiments validated offline
//! transfer directly to the online deployment.
//!
//! Like the batch engine, the per-key state is dense: sliding sums and
//! window-occupancy counts in flat vectors indexed by [`KeyId`]
//! (first-seen key ids are dense by construction), membership in a
//! [`KeyBitset`]. Elephants fall out of ordered bitset iteration already
//! sorted — no per-interval hash iteration or sort.

use std::collections::VecDeque;

use eleph_flow::KeyId;

use crate::bits::KeyBitset;
use crate::{Scheme, ThresholdDetector, ThresholdTracker};

/// The outcome of one streamed interval.
#[derive(Debug, Clone)]
pub struct IntervalOutcome {
    /// Interval index (0-based, counts calls to `observe`).
    pub interval: usize,
    /// Smoothed threshold used for this interval.
    pub threshold: f64,
    /// Sorted elephant key ids.
    pub elephants: Vec<KeyId>,
    /// Traffic carried by the elephants (b/s).
    pub elephant_load: f64,
    /// Total traffic in the interval (b/s).
    pub total_load: f64,
}

impl IntervalOutcome {
    /// Fraction of traffic carried by elephants (0 when idle).
    pub fn fraction(&self) -> f64 {
        if self.total_load <= 0.0 {
            0.0
        } else {
            self.elephant_load / self.total_load
        }
    }
}

/// The sliding-window length a scheme classifies over: the latent-heat
/// window, or 1 for the single-interval schemes. Panics on invalid
/// scheme parameters (same contract as [`OnlineClassifier::new`]).
fn scheme_window(scheme: Scheme) -> usize {
    match scheme {
        Scheme::LatentHeat { window } => {
            assert!(window >= 1, "latent-heat window must be >= 1");
            window
        }
        Scheme::SingleFeature => 1,
        Scheme::Hysteresis { enter, exit } => {
            assert!(enter >= 1.0 && (0.0..=1.0).contains(&exit), "need exit <= 1 <= enter");
            1
        }
    }
}

/// The full recovery frontier of an [`OnlineClassifier`], exported for
/// checkpointing and re-imported on restart.
///
/// The per-key sliding sums are *path-dependent* floats (incremental
/// adds and retirement subtractions in stream order), so they are
/// carried verbatim rather than recomputed from the window — recomputing
/// would bit-differ from an uninterrupted run. Threshold histories are
/// deliberately **not** part of the state: a checkpoint stays bounded by
/// the window and key population, independent of run length, and a
/// resumed classifier's outputs depend only on the smoothed EWMA value.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierState {
    /// Intervals observed so far (the next outcome's index).
    pub interval: usize,
    /// Current smoothed threshold (`None` before the first detection).
    pub smoothed: Option<f64>,
    /// Sliding threshold sum over the window (path-dependent).
    pub sum_t: f64,
    /// Per-key window state for every key with `live > 0`, ascending by
    /// key id: `(key, sliding bandwidth sum, occupied window slots)`.
    pub per_key: Vec<(KeyId, f64, u32)>,
    /// The in-window history, oldest first: each entry is the interval's
    /// threshold term and its sparse snapshot (ascending by key).
    pub history: Vec<(f64, Vec<(KeyId, f32)>)>,
    /// The previous interval's elephants (hysteresis membership),
    /// ascending by key id; empty for the other schemes.
    pub members: Vec<KeyId>,
}

impl ClassifierState {
    /// Structurally validate this state against a scheme: history
    /// bounded by the scheme's window, key lists and snapshots ascending,
    /// membership only under hysteresis, and per-key occupancy counts
    /// exactly matching the history (the retire path depends on that
    /// invariant to release state). [`OnlineClassifier::from_state`]
    /// runs it, so a corrupt checkpoint is rejected before it loads.
    ///
    /// # Panics
    ///
    /// Panics when the scheme parameters are invalid (same contract as
    /// [`OnlineClassifier::new`]).
    pub fn validate(&self, scheme: Scheme) -> Result<(), String> {
        let window = scheme_window(scheme);
        if self.history.len() > window {
            return Err(format!(
                "classifier state holds {} history slots for a window of {}",
                self.history.len(),
                window
            ));
        }
        if !self.per_key.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("per-key state not ascending by key id".to_string());
        }
        if !self.members.windows(2).all(|w| w[0] < w[1]) {
            return Err("membership list not ascending by key id".to_string());
        }
        if !matches!(scheme, Scheme::Hysteresis { .. }) && !self.members.is_empty() {
            return Err("membership state present for a non-hysteresis scheme".to_string());
        }
        // Occupancy must match the history exactly: live[k] is defined
        // as the number of in-window snapshots containing k, and the
        // retire path depends on that invariant to release state.
        let mut live_check: Vec<(KeyId, u32)> =
            self.per_key.iter().map(|&(key, _, _)| (key, 0)).collect();
        for (_, snapshot) in &self.history {
            if !snapshot.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err("history snapshot not ascending by key id".to_string());
            }
            for &(key, _) in snapshot {
                match live_check.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(at) => live_check[at].1 += 1,
                    Err(_) => {
                        return Err(format!("history references key {key} absent from per-key state"))
                    }
                }
            }
        }
        for (&(key, _, live), &(_, counted)) in self.per_key.iter().zip(&live_check) {
            if live == 0 || live != counted {
                return Err(format!(
                    "key {key} occupancy {live} does not match its {counted} history slots"
                ));
            }
        }
        Ok(())
    }
}

/// Incremental implementation of all three classification schemes.
///
/// Memory: O(highest key id seen) words of dense per-key state plus the
/// window's snapshots — with the pipeline's dense first-seen key ids
/// that is O(distinct keys ever active), each key costing a few words
/// for the lifetime of the monitor. [`OnlineClassifier::tracked_keys`]
/// reports the number of keys currently holding window state.
#[derive(Debug)]
pub struct OnlineClassifier<D> {
    tracker: ThresholdTracker<D>,
    scheme: Scheme,
    window: usize,
    /// Sliding per-key bandwidth sums over the window, dense by key id.
    sum_b: Vec<f64>,
    /// Per-key count of window slots with recorded activity. A key's
    /// sum resets to exact 0.0 when its count hits zero, so retirement
    /// cannot leave float-rounding residue behind (see the batch
    /// engine's `LatentState` for the full rationale).
    live: Vec<u32>,
    /// Keys with `live > 0`, iterated in ascending order for emission.
    in_window: KeyBitset,
    /// Sliding threshold sum over the window.
    sum_t: f64,
    /// The window's per-interval history: (threshold term, snapshot).
    history: VecDeque<(f64, Vec<(KeyId, f32)>)>,
    /// Current membership for the hysteresis scheme.
    members: KeyBitset,
    /// The previous interval's elephants (to clear hysteresis bits).
    prev_members: Vec<KeyId>,
    interval: usize,
}

impl<D: ThresholdDetector> OnlineClassifier<D> {
    /// Create a streaming classifier.
    ///
    /// # Panics
    ///
    /// Panics when γ is outside [0, 1) or a latent-heat window is 0.
    pub fn new(detector: D, gamma: f64, scheme: Scheme) -> Self {
        let window = scheme_window(scheme);
        OnlineClassifier {
            tracker: ThresholdTracker::new(detector, gamma),
            scheme,
            window,
            sum_b: Vec::new(),
            live: Vec::new(),
            in_window: KeyBitset::default(),
            sum_t: 0.0,
            history: VecDeque::with_capacity(window + 1),
            members: KeyBitset::default(),
            prev_members: Vec::new(),
            interval: 0,
        }
    }

    /// Grow the dense per-key arrays to cover `key`.
    #[inline]
    fn ensure_key(&mut self, key: KeyId) {
        let need = key as usize + 1;
        if self.sum_b.len() < need {
            self.sum_b.resize(need, 0.0);
            self.live.resize(need, 0);
        }
    }

    /// Feed one interval's sparse snapshot (ascending by key, as
    /// produced by the measurement pipeline) and classify it.
    pub fn observe(&mut self, snapshot: &[(KeyId, f32)]) -> IntervalOutcome {
        debug_assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
        let values: Vec<f64> = snapshot.iter().map(|&(_, r)| f64::from(r)).collect();
        // Fold from +0.0 like the batch matrix's total accumulation —
        // `Iterator::sum` starts from -0.0, which would make an empty
        // interval's total bit-differ from the batch path.
        let total_load: f64 = values.iter().fold(0.0, |s, &v| s + v);
        let threshold = self.tracker.observe(&values);

        // Slide the window forward.
        let t_term = if threshold.is_finite() {
            threshold
        } else {
            // Pre-detection: an unbeatable finite stand-in (see the batch
            // classifier for the same rule).
            values.iter().cloned().fold(0.0, f64::max) + 1.0
        };
        self.sum_t += t_term;
        for &(key, rate) in snapshot {
            self.ensure_key(key);
            let k = key as usize;
            if self.live[k] == 0 {
                self.sum_b[k] = f64::from(rate);
                self.in_window.insert(key);
            } else {
                self.sum_b[k] += f64::from(rate);
            }
            self.live[k] += 1;
        }
        self.history.push_back((t_term, snapshot.to_vec()));
        if self.history.len() > self.window {
            let (old_t, old_snapshot) = self.history.pop_front().expect("len checked");
            self.sum_t -= old_t;
            for (key, rate) in old_snapshot {
                let k = key as usize;
                self.live[k] -= 1;
                if self.live[k] == 0 {
                    self.sum_b[k] = 0.0;
                    self.in_window.remove(key);
                } else {
                    self.sum_b[k] = (self.sum_b[k] - f64::from(rate)).max(0.0);
                }
            }
        }

        // Classify. Every branch yields ascending key ids, so the
        // emitted list needs no sort.
        let mut elephants: Vec<KeyId> = Vec::new();
        let mut elephant_load = 0.0f64;
        match self.scheme {
            Scheme::SingleFeature => {
                for &(key, rate) in snapshot {
                    let b = f64::from(rate);
                    if b > threshold {
                        elephants.push(key);
                        elephant_load += b;
                    }
                }
            }
            Scheme::LatentHeat { .. } => {
                // Degenerate interval (zero attributed packets): emit an
                // empty elephant set instead of alerting on stale window
                // state — mirrors the batch classifier exactly, so the
                // online-vs-batch equivalence holds through capture gaps.
                if !snapshot.is_empty() {
                    for key in self.in_window.iter() {
                        if self.sum_b[key as usize] > self.sum_t {
                            elephants.push(key);
                            elephant_load += snapshot
                                .binary_search_by_key(&key, |&(k, _)| k)
                                .map(|i| f64::from(snapshot[i].1))
                                .unwrap_or(0.0);
                        }
                    }
                }
            }
            Scheme::Hysteresis { enter, exit } => {
                for &(key, rate) in snapshot {
                    let b = f64::from(rate);
                    let keep = if self.members.contains(key) {
                        b >= exit * threshold
                    } else {
                        b > enter * threshold
                    };
                    if keep {
                        elephants.push(key);
                        elephant_load += b;
                    }
                }
                for &key in &self.prev_members {
                    self.members.remove(key);
                }
                for &key in &elephants {
                    self.members.insert(key);
                }
                self.prev_members.clear();
                self.prev_members.extend_from_slice(&elephants);
            }
        }

        let outcome = IntervalOutcome {
            interval: self.interval,
            threshold,
            elephants,
            elephant_load,
            total_load,
        };
        self.interval += 1;
        outcome
    }

    /// Export the recovery frontier (see [`ClassifierState`]).
    pub fn export_state(&self) -> ClassifierState {
        ClassifierState {
            interval: self.interval,
            smoothed: self.tracker.smoothed_value(),
            sum_t: self.sum_t,
            per_key: self
                .in_window
                .iter()
                .map(|key| (key, self.sum_b[key as usize], self.live[key as usize]))
                .collect(),
            history: self.history.iter().cloned().collect(),
            members: self.prev_members.clone(),
        }
    }

    /// Rebuild a classifier from a checkpointed [`ClassifierState`],
    /// continuing bit-identically to the classifier that exported it
    /// (same detector and configuration required — the caller validates
    /// those against its checkpoint metadata).
    ///
    /// The state is structurally validated: history bounded by the
    /// window, snapshots and key lists ascending, per-key occupancy
    /// counts consistent with the history. A corrupted state is rejected
    /// with a description, never partially restored.
    ///
    /// # Panics
    ///
    /// Panics when γ or the scheme parameters are invalid (same
    /// contract as [`OnlineClassifier::new`]).
    pub fn from_state(
        detector: D,
        gamma: f64,
        scheme: Scheme,
        state: ClassifierState,
    ) -> Result<Self, String> {
        let mut classifier = OnlineClassifier::new(detector, gamma, scheme);
        state.validate(scheme)?;
        classifier.tracker.restore_smoothed(state.smoothed);
        classifier.sum_t = state.sum_t;
        for &(key, sum, live) in &state.per_key {
            classifier.ensure_key(key);
            classifier.sum_b[key as usize] = sum;
            classifier.live[key as usize] = live;
            classifier.in_window.insert(key);
        }
        classifier.history = state.history.into();
        for &key in &state.members {
            classifier.members.insert(key);
        }
        classifier.prev_members = state.members;
        classifier.interval = state.interval;
        Ok(classifier)
    }

    /// Number of intervals observed so far.
    pub fn intervals_observed(&self) -> usize {
        self.interval
    }

    /// The smoothing factor γ this classifier was built with.
    pub fn gamma(&self) -> f64 {
        self.tracker.gamma()
    }

    /// The classification scheme this classifier was built with.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The detector's name (checkpoints fingerprint the configuration
    /// with it, so a snapshot cannot silently resume under a different
    /// detector).
    pub fn detector_name(&self) -> String {
        self.tracker.detector_name()
    }

    /// Number of keys currently holding sliding-window state — zero
    /// again once every key has been idle for a full window (the dense
    /// retire path is exact, so state cannot leak).
    pub fn tracked_keys(&self) -> usize {
        self.in_window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, ConstantLoadDetector};
    use eleph_flow::BandwidthMatrix;
    use eleph_net::Prefix;

    fn keys(n: usize) -> Vec<Prefix> {
        (0..n)
            .map(|i| format!("10.0.{i}.0/24").parse().expect("valid"))
            .collect()
    }

    fn rows() -> Vec<Vec<f64>> {
        // A mix of persistent, flickering and bursting flows.
        vec![
            vec![500.0, 10.0, 0.0, 80.0],
            vec![480.0, 12.0, 900.0, 0.0],
            vec![510.0, 9.0, 0.0, 70.0],
            vec![490.0, 11.0, 0.0, 75.0],
            vec![505.0, 10.0, 0.0, 0.0],
            vec![495.0, 10.0, 0.0, 90.0],
        ]
    }

    fn run_both(scheme: Scheme) {
        let rows = rows();
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(4), &rows);
        let batch = classify(&matrix, ConstantLoadDetector::new(0.8), 0.9, scheme);

        let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
        for n in 0..rows.len() {
            let out = online.observe(&matrix.interval(n).to_pairs());
            assert_eq!(out.interval, n);
            assert_eq!(out.elephants, batch.elephants[n], "{scheme:?} interval {n}");
            assert!((out.threshold - batch.thresholds[n]).abs() < 1e-9);
            assert!((out.elephant_load - batch.elephant_load[n]).abs() < 1e-6);
            assert!((out.total_load - batch.total_load[n]).abs() < 1e-6);
            assert!((out.fraction() - batch.fraction(n)).abs() < 1e-9);
        }
        assert_eq!(online.intervals_observed(), rows.len());
    }

    #[test]
    fn matches_batch_single_feature() {
        run_both(Scheme::SingleFeature);
    }

    #[test]
    fn matches_batch_latent_heat() {
        run_both(Scheme::LatentHeat { window: 3 });
    }

    #[test]
    fn matches_batch_hysteresis() {
        run_both(Scheme::Hysteresis {
            enter: 1.2,
            exit: 0.6,
        });
    }

    #[test]
    fn hysteresis_keeps_member_through_shallow_dip() {
        // Threshold fixed at 100 via constant-load on a single dominant
        // flow is awkward; use the enter/exit semantics directly with a
        // scripted detector instead.
        struct Fixed;
        impl crate::ThresholdDetector for Fixed {
            fn detect(&self, _v: &[f64]) -> Option<f64> {
                Some(100.0)
            }
            fn name(&self) -> String {
                "fixed".to_string()
            }
        }
        let mut online = OnlineClassifier::new(
            Fixed,
            0.0,
            Scheme::Hysteresis {
                enter: 1.2,
                exit: 0.6,
            },
        );
        // 130 > 120: enters. 80 >= 60: stays. 50 < 60: leaves.
        // 110 < 120: may not re-enter.
        let outcomes: Vec<bool> = [130.0f32, 80.0, 50.0, 110.0, 125.0]
            .iter()
            .map(|&r| !online.observe(&[(0, r)]).elephants.is_empty())
            .collect();
        assert_eq!(outcomes, vec![true, true, false, false, true]);
    }

    #[test]
    fn memory_bounded_by_window_occupancy() {
        // Distinct keys every interval: tracked keys must not exceed
        // window × per-interval keys.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.0,
            Scheme::LatentHeat { window: 2 },
        );
        for n in 0..50u32 {
            let snapshot = vec![(n * 3, 10.0f32), (n * 3 + 1, 20.0), (n * 3 + 2, 30.0)];
            online.observe(&snapshot);
            assert!(online.tracked_keys() <= 6, "window leak: {}", online.tracked_keys());
        }
    }

    #[test]
    fn empty_intervals_are_legal() {
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        let out = online.observe(&[]);
        assert!(out.elephants.is_empty());
        assert_eq!(out.fraction(), 0.0);
        // Then traffic arrives: the classifier recovers.
        let out = online.observe(&[(1, 100.0), (2, 5.0)]);
        assert_eq!(out.total_load, 105.0);
    }

    #[test]
    fn randomized_equivalence_with_batch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n_keys = 40;
        let n_int = 30;
        let rows: Vec<Vec<f64>> = (0..n_int)
            .map(|_| {
                (0..n_keys)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.4 {
                            0.0
                        } else {
                            rng.gen_range(1.0..1000.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(n_keys), &rows);
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 5 },
            Scheme::Hysteresis { enter: 1.3, exit: 0.7 },
        ] {
            let batch = classify(&matrix, ConstantLoadDetector::new(0.7), 0.9, scheme);
            let mut online =
                OnlineClassifier::new(ConstantLoadDetector::new(0.7), 0.9, scheme);
            for n in 0..n_int {
                let out = online.observe(&matrix.interval(n).to_pairs());
                assert_eq!(out.elephants, batch.elephants[n], "{scheme:?} at {n}");
            }
        }
    }

    #[test]
    fn mid_stream_empty_interval_yields_no_elephants() {
        // Regression (PR 4): a capture gap mid-stream. The keys' latent
        // heat stays hugely positive, but an interval with zero
        // attributed packets must report an empty elephant set and a
        // 0.0 (not NaN) fraction — and traffic resuming next interval
        // must restore the elephants from the surviving window state.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 4 },
        );
        for _ in 0..3 {
            let out = online.observe(&[(0, 10_000.0), (1, 5_000.0), (2, 100.0)]);
            assert_eq!(out.elephants, vec![0]);
        }
        let gap = online.observe(&[]);
        assert!(gap.elephants.is_empty(), "stale elephants across a gap");
        assert_eq!(gap.elephant_load, 0.0);
        assert_eq!(gap.total_load, 0.0);
        assert_eq!(gap.fraction(), 0.0, "fraction must be 0, not NaN");
        assert!(gap.fraction().is_finite());
        // The window survives the gap: the elephant returns immediately.
        let back = online.observe(&[(0, 10_000.0), (1, 5_000.0), (2, 100.0)]);
        assert_eq!(back.elephants, vec![0]);
    }

    #[test]
    fn batch_and_online_agree_on_empty_intervals() {
        // The empty-interval guard must hold identically in both
        // engines or the streaming pipeline's bit-equivalence breaks.
        let rows = vec![
            vec![800.0, 10.0],
            vec![790.0, 12.0],
            vec![0.0, 0.0], // capture gap
            vec![810.0, 11.0],
        ];
        let matrix = BandwidthMatrix::from_dense(60, 0, keys(2), &rows);
        let batch = classify(
            &matrix,
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        assert!(batch.elephants[2].is_empty(), "batch emits stale elephants");
        assert_eq!(batch.fraction(2), 0.0);
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.9,
            Scheme::LatentHeat { window: 3 },
        );
        for n in 0..rows.len() {
            let out = online.observe(&matrix.interval(n).to_pairs());
            assert_eq!(out.elephants, batch.elephants[n], "interval {n}");
            assert_eq!(out.threshold.to_bits(), batch.thresholds[n].to_bits());
        }
    }

    #[test]
    fn exact_retirement_releases_all_state() {
        // A key idle for a full window must leave zero residue, even
        // when its rates were chosen to defeat incremental float sums.
        let mut online = OnlineClassifier::new(
            ConstantLoadDetector::new(0.8),
            0.0,
            Scheme::LatentHeat { window: 3 },
        );
        let huge = (1u64 << 55) as f32;
        online.observe(&[(7, 3.0), (9, huge)]);
        online.observe(&[(7, huge), (9, 5.0)]);
        online.observe(&[(7, 1.0)]);
        assert!(online.tracked_keys() > 0);
        for _ in 0..3 {
            online.observe(&[]);
        }
        assert_eq!(online.tracked_keys(), 0, "stale window state leaked");
    }

    #[test]
    fn state_round_trip_continues_bit_identically() {
        // Export/import at every split point; the resumed classifier's
        // remaining outcomes must match the uninterrupted run *by bits*,
        // including across latent-heat retirement and hysteresis
        // transitions exercised by the `rows()` mix.
        let rows = rows();
        for scheme in [
            Scheme::SingleFeature,
            Scheme::LatentHeat { window: 2 },
            Scheme::Hysteresis { enter: 1.2, exit: 0.6 },
        ] {
            let matrix = BandwidthMatrix::from_dense(60, 0, keys(4), &rows);
            let mut reference =
                OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
            let expected: Vec<IntervalOutcome> = (0..rows.len())
                .map(|n| reference.observe(&matrix.interval(n).to_pairs()))
                .collect();
            for split in 0..rows.len() {
                let mut first =
                    OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
                for n in 0..split {
                    first.observe(&matrix.interval(n).to_pairs());
                }
                let state = first.export_state();
                assert_eq!(state, first.export_state(), "export must be pure");
                let mut resumed = OnlineClassifier::from_state(
                    ConstantLoadDetector::new(0.8),
                    0.9,
                    scheme,
                    state,
                )
                .expect("valid state");
                assert_eq!(resumed.intervals_observed(), split);
                for n in split..rows.len() {
                    let out = resumed.observe(&matrix.interval(n).to_pairs());
                    let want = &expected[n];
                    assert_eq!(out.interval, want.interval);
                    assert_eq!(out.elephants, want.elephants, "{scheme:?} split {split} at {n}");
                    assert_eq!(out.threshold.to_bits(), want.threshold.to_bits());
                    assert_eq!(out.elephant_load.to_bits(), want.elephant_load.to_bits());
                    assert_eq!(out.total_load.to_bits(), want.total_load.to_bits());
                }
            }
        }
    }

    #[test]
    fn from_state_rejects_corrupt_structures() {
        let scheme = Scheme::LatentHeat { window: 3 };
        let mut online = OnlineClassifier::new(ConstantLoadDetector::new(0.8), 0.9, scheme);
        online.observe(&[(1, 50.0), (4, 700.0)]);
        online.observe(&[(1, 60.0)]);
        let good = online.export_state();
        let rebuild = |state: ClassifierState| {
            OnlineClassifier::from_state(ConstantLoadDetector::new(0.8), 0.9, scheme, state)
        };
        assert!(rebuild(good.clone()).is_ok());

        // Occupancy out of sync with the history.
        let mut bad = good.clone();
        bad.per_key[0].2 += 1;
        assert!(rebuild(bad).unwrap_err().contains("occupancy"));

        // History key missing from the per-key table.
        let mut bad = good.clone();
        bad.per_key.remove(1);
        assert!(rebuild(bad).unwrap_err().contains("absent"));

        // More history than the window can hold.
        let mut bad = good.clone();
        bad.history.extend_from_slice(&[(1.0, vec![]), (1.0, vec![]), (1.0, vec![])]);
        assert!(rebuild(bad).unwrap_err().contains("window"));

        // Unsorted snapshot inside the history.
        let mut bad = good.clone();
        bad.history[0].1.reverse();
        assert!(rebuild(bad).unwrap_err().contains("ascending"));

        // Membership state on a scheme without hysteresis.
        let mut bad = good;
        bad.members = vec![1];
        assert!(rebuild(bad).unwrap_err().contains("hysteresis"));
    }
}
