//! Per-experiment telemetry plumbing.
//!
//! Experiments often build several independent testbeds (scenario loops,
//! parameter sweeps). Subsystem exports write *absolute totals*
//! ([`Telemetry::set_counter`]-style), so two testbeds exporting into the
//! same registry would overwrite each other instead of accumulating. The
//! pattern here gives every testbed its own **scope** (a fresh
//! sub-registry) and folds finished scopes into the experiment's registry
//! with merge semantics — counters and histogram buckets add, so the
//! experiment-level numbers are sums over its scenarios, exactly like a
//! sharded run merging its shards.
//!
//! Everything is a no-op when the parent handle is disabled; the only
//! cost on the disabled path is the `is_enabled` branch.

use underradar_censor::TapCensor;
use underradar_core::methods::stateful::RoutedMimicryNet;
use underradar_core::testbed::Testbed;
use underradar_surveil::system::SurveillanceNode;
use underradar_telemetry::Telemetry;

/// A fresh sub-registry, enabled iff `parent` is enabled (delegates to
/// [`Telemetry::scope`]).
pub fn scope(parent: &Telemetry) -> Telemetry {
    parent.scope()
}

/// Fold a finished scope's totals into `parent` (counters add, gauges
/// overwrite, histograms bucket-add, trace records append; delegates to
/// [`Telemetry::absorb`]).
pub fn absorb(parent: &Telemetry, sub: &Telemetry) {
    parent.absorb(sub);
}

/// Attach a fresh scope to a testbed's scheduler so live counters record
/// while it runs. Returns the scope; finish with [`finish_testbed`].
pub fn instrument_testbed(tb: &mut Testbed, parent: &Telemetry) -> Telemetry {
    let sub = scope(parent);
    if sub.is_enabled() {
        tb.set_telemetry(sub.clone());
    }
    sub
}

/// Export a finished testbed into its scope and fold the scope into
/// `parent`.
pub fn finish_testbed(tb: &Testbed, sub: &Telemetry, parent: &Telemetry) {
    tb.export_telemetry(sub);
    absorb(parent, sub);
}

/// Attach a fresh scope to a routed-mimicry net's scheduler (and, when
/// the scope carries a flight-recorder trace, to the net's censor and
/// surveillance stages). Finish with [`finish_routed`].
pub fn instrument_routed(net: &mut RoutedMimicryNet, parent: &Telemetry) -> Telemetry {
    let sub = scope(parent);
    if sub.is_enabled() {
        let tracer = sub.tracer();
        net.sim.set_telemetry(sub.clone());
        if tracer.is_live() {
            if let Some(tap) = net.sim.node_mut::<TapCensor>(net.censor) {
                tap.set_tracer(tracer.clone());
            }
            if let Some(surv) = net.sim.node_mut::<SurveillanceNode>(net.surveillance) {
                surv.set_tracer(tracer);
            }
        }
    }
    sub
}

/// Export a finished routed-mimicry net (scheduler, tap censor,
/// surveillance pipeline) into its scope and fold into `parent`.
pub fn finish_routed(net: &RoutedMimicryNet, sub: &Telemetry, parent: &Telemetry) {
    if sub.is_enabled() {
        net.sim.export_telemetry(sub);
        if let Some(tap) = net.sim.node_ref::<TapCensor>(net.censor) {
            tap.export_telemetry(sub);
        }
        if let Some(surv) = net.sim.node_ref::<SurveillanceNode>(net.surveillance) {
            surv.system().export_telemetry(sub);
        }
    }
    absorb(parent, sub);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_parent_yields_disabled_scope() {
        let parent = Telemetry::disabled();
        let sub = scope(&parent);
        assert!(!sub.is_enabled());
        absorb(&parent, &sub); // no-op, must not panic
        assert!(parent.snapshot().is_empty());
    }

    #[test]
    fn scopes_accumulate_instead_of_overwriting() {
        let parent = Telemetry::enabled();
        for _ in 0..3 {
            let sub = scope(&parent);
            sub.set_counter("x.total", 5); // absolute total per scenario
            absorb(&parent, &sub);
        }
        assert_eq!(parent.snapshot().counter("x.total"), 15);
    }
}
