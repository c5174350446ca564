//! Page-cross policies: the schemes compared in Fig. 9.
//!
//! A [`PgcPolicy`] is consulted for every prefetch candidate that crosses a
//! page boundary. Static policies (`Permit PGC`, `Discard PGC`,
//! `Discard PTW`) need no learning; filter-backed policies wrap a
//! [`PageCrossFilter`] and receive the full training signal from the CPU
//! model.

use crate::features::FeatureContext;
use crate::filter::PageCrossFilter;
use pagecross_types::{Decision, PolicyTelemetry, PrefetchCandidate, SystemSnapshot};

/// What to do with a page-cross candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyAction {
    /// Issue; `allow_walk` permits a speculative page walk on a TLB miss
    /// (the `Discard PTW` scenario issues with `allow_walk = false`).
    Issue {
        /// Allow a speculative page walk if the translation is absent.
        allow_walk: bool,
    },
    /// Drop the candidate.
    Discard,
}

/// A page-cross policy. All training hooks default to no-ops so static
/// policies only implement [`PgcPolicy::decide`].
pub trait PgcPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides the fate of a page-cross candidate.
    fn decide(
        &mut self,
        cand: &PrefetchCandidate,
        ctx: &FeatureContext,
        snap: &SystemSnapshot,
    ) -> PolicyAction;

    /// The issued prefetch fetched `phys_line` into L1D.
    fn on_issued(&mut self, _phys_line: u64) {}

    /// The issued prefetch was dropped (redundant / translation missing).
    fn on_issue_dropped(&mut self) {}

    /// An L1D demand miss occurred at this virtual line.
    fn on_l1d_demand_miss(&mut self, _virt_line: u64) {}

    /// First demand hit on a page-cross-prefetched (PCB) block.
    fn on_pcb_first_hit(&mut self, _phys_line: u64) {}

    /// A PCB block was evicted from L1D.
    fn on_pcb_eviction(&mut self, _phys_line: u64, _served_hits: bool) {}

    /// Periodic in-epoch check with a fresh snapshot.
    fn spot_check(&mut self, _snap: &SystemSnapshot) {}

    /// Epoch boundary with the epoch's summary snapshot.
    fn end_epoch(&mut self, _snap: &SystemSnapshot) {}

    /// Full policy internals for interval sampling. May be O(filter state)
    /// — callers invoke it once per sampling interval, not per decision.
    /// `None` for static policies with no internals.
    fn telemetry(&self) -> Option<PolicyTelemetry> {
        None
    }

    /// Cheap per-decision threshold readout for event tracing. `None` for
    /// policies with no threshold.
    fn current_threshold(&self) -> Option<i32> {
        None
    }
}

/// `Permit PGC`: always issue, walking when necessary.
#[derive(Clone, Copy, Debug, Default)]
pub struct PermitPgc;

impl PgcPolicy for PermitPgc {
    fn name(&self) -> &'static str {
        "permit-pgc"
    }

    fn decide(
        &mut self,
        _cand: &PrefetchCandidate,
        _ctx: &FeatureContext,
        _snap: &SystemSnapshot,
    ) -> PolicyAction {
        PolicyAction::Issue { allow_walk: true }
    }
}

/// `Discard PGC`: never issue (the behaviour of academic L1D prefetchers).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscardPgc;

impl PgcPolicy for DiscardPgc {
    fn name(&self) -> &'static str {
        "discard-pgc"
    }

    fn decide(
        &mut self,
        _cand: &PrefetchCandidate,
        _ctx: &FeatureContext,
        _snap: &SystemSnapshot,
    ) -> PolicyAction {
        PolicyAction::Discard
    }
}

/// `Discard PTW`: issue only when the translation is already TLB-resident;
/// never trigger a speculative walk.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscardPtw;

impl PgcPolicy for DiscardPtw {
    fn name(&self) -> &'static str {
        "discard-ptw"
    }

    fn decide(
        &mut self,
        _cand: &PrefetchCandidate,
        _ctx: &FeatureContext,
        _snap: &SystemSnapshot,
    ) -> PolicyAction {
        PolicyAction::Issue { allow_walk: false }
    }
}

/// A filter-backed policy (DRIPPER, PPF, single-feature filters, …).
#[derive(Clone, Debug)]
pub struct FilterPolicy {
    name: &'static str,
    filter: PageCrossFilter,
}

impl FilterPolicy {
    /// Wraps a filter under a report name.
    pub fn new(name: &'static str, filter: PageCrossFilter) -> Self {
        Self { name, filter }
    }

    /// Access to the wrapped filter (stats, threshold).
    pub fn filter(&self) -> &PageCrossFilter {
        &self.filter
    }
}

impl PgcPolicy for FilterPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn decide(
        &mut self,
        cand: &PrefetchCandidate,
        ctx: &FeatureContext,
        snap: &SystemSnapshot,
    ) -> PolicyAction {
        match self.filter.decide(cand, ctx, snap) {
            Decision::Issue => PolicyAction::Issue { allow_walk: true },
            Decision::Discard => PolicyAction::Discard,
        }
    }

    fn on_issued(&mut self, phys_line: u64) {
        self.filter.confirm_issue(phys_line);
    }

    fn on_issue_dropped(&mut self) {
        self.filter.cancel_issue();
    }

    fn on_l1d_demand_miss(&mut self, virt_line: u64) {
        self.filter.on_l1d_demand_miss(virt_line);
    }

    fn on_pcb_first_hit(&mut self, phys_line: u64) {
        self.filter.on_pcb_first_hit(phys_line);
    }

    fn on_pcb_eviction(&mut self, phys_line: u64, served_hits: bool) {
        self.filter.on_pcb_eviction(phys_line, served_hits);
    }

    fn spot_check(&mut self, snap: &SystemSnapshot) {
        self.filter.spot_check(snap);
    }

    fn end_epoch(&mut self, snap: &SystemSnapshot) {
        self.filter.end_epoch(snap);
    }

    fn telemetry(&self) -> Option<PolicyTelemetry> {
        Some(PolicyTelemetry {
            threshold: self.filter.threshold(),
            weight_saturation: self.filter.weight_saturation(),
            decisions: self.filter.stats.decisions,
            issued: self.filter.stats.issued,
            discarded: self.filter.stats.discarded,
        })
    }

    fn current_threshold(&self) -> Option<i32> {
        Some(self.filter.threshold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::VirtAddr;

    fn cand() -> PrefetchCandidate {
        PrefetchCandidate {
            pc: 1,
            trigger: VirtAddr::new(0xFC0),
            target: VirtAddr::new(0x1000),
            delta: 1,
            first_page_access: false,
        }
    }

    #[test]
    fn static_policies() {
        let c = cand();
        let ctx = FeatureContext::default();
        let s = SystemSnapshot::default();
        assert_eq!(
            PermitPgc.decide(&c, &ctx, &s),
            PolicyAction::Issue { allow_walk: true }
        );
        assert_eq!(DiscardPgc.decide(&c, &ctx, &s), PolicyAction::Discard);
        assert_eq!(
            DiscardPtw.decide(&c, &ctx, &s),
            PolicyAction::Issue { allow_walk: false }
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PermitPgc.name(), "permit-pgc");
        assert_eq!(DiscardPgc.name(), "discard-pgc");
        assert_eq!(DiscardPtw.name(), "discard-ptw");
    }

    #[test]
    fn filter_policy_routes_training() {
        use crate::features::ProgramFeature;
        use crate::filter::FilterConfig;
        let mut cfg = FilterConfig::with_features(vec![ProgramFeature::Delta], vec![]);
        cfg.adaptive = false;
        cfg.static_threshold = 0;
        let mut p = FilterPolicy::new("test", PageCrossFilter::new(cfg));
        let c = cand();
        let ctx = FeatureContext {
            delta: 1,
            ..Default::default()
        };
        let s = SystemSnapshot::default();
        assert_eq!(p.decide(&c, &ctx, &s), PolicyAction::Discard);
        p.on_l1d_demand_miss(c.target.line().raw());
        assert_eq!(p.filter().stats.vub_trainings, 1);
        // Trained once: weight 1 > 0 -> issue.
        assert_eq!(
            p.decide(&c, &ctx, &s),
            PolicyAction::Issue { allow_walk: true }
        );
        p.on_issued(0xAA);
        p.on_pcb_eviction(0xAA, false);
        assert_eq!(p.filter().stats.pub_punishes, 1);
    }

    #[test]
    fn telemetry_exposes_filter_internals() {
        use crate::features::ProgramFeature;
        use crate::filter::FilterConfig;
        let mut cfg = FilterConfig::with_features(vec![ProgramFeature::Delta], vec![]);
        cfg.adaptive = false;
        cfg.static_threshold = 3;
        let mut p = FilterPolicy::new("test", PageCrossFilter::new(cfg));
        assert_eq!(p.current_threshold(), Some(3));
        let t0 = p.telemetry().expect("filter policy has telemetry");
        assert_eq!(t0.threshold, 3);
        assert_eq!(t0.decisions, 0);
        assert_eq!(t0.weight_saturation, 0.0, "untrained weights at zero");
        p.decide(
            &cand(),
            &FeatureContext::default(),
            &SystemSnapshot::default(),
        );
        assert_eq!(p.telemetry().unwrap().decisions, 1);
        // Static policies expose nothing.
        assert_eq!(PermitPgc.telemetry(), None);
        assert_eq!(PermitPgc.current_threshold(), None);
    }
}
