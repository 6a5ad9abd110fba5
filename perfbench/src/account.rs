//! Turning a traced run's brackets into per-layer self times.
//!
//! Each bracket costs about [`Calibration::pair_ns`] of wall time; the
//! part its own span measures ([`Calibration::inner_ns`]) is taken off
//! the layer's self time, the rest off its parent's. Monitor hooks are
//! bracketed one call in [`Op::stride`](crate::probe::Op::stride), and
//! their spans arrive scaled to every call. What is left is an
//! estimate of the layer's cost in an untraced run. The engine row
//! (links, routers, arena, event queue) is what remains of the traced
//! run once the layers and the calibrated tracing cost are taken out, so
//! it also holds whatever slowdown tracing causes beyond that cost
//! (caches and branch predictors shared with the brackets) and any host
//! slowdown of the traced runs. Subtracting the rows from the untraced
//! run's wall time leaves the residual: that unexplained part, negative
//! when the engine row is inflated. Its size is the error bar of every
//! row, the engine row's most of all.

use crate::probe::{Calibration, Layer, Op, OpStats};
use std::collections::BTreeMap;

/// Layers reported as rows besides the engine, in report order.
pub const ROW_LAYERS: [Layer; 5] = [
    Layer::Taq,
    Layer::DropTail,
    Layer::Tcp,
    Layer::Metrics,
    Layer::Telemetry,
];

/// One traced run's wall time, attributed, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Wall time of the traced run phase.
    pub traced_run_s: f64,
    /// Engine, links, routers and arena: the remainder, including the
    /// tracing slowdown the calibration does not remove.
    pub sim_s: f64,
    /// Self time of each [`ROW_LAYERS`] layer, calibrated.
    pub layers: BTreeMap<Layer, f64>,
    /// Cost of the tracing itself: every bracket's clock reads plus the
    /// benchmark's counting monitor.
    pub trace_s: f64,
    /// Brackets opened inside the run phase.
    pub spans: u64,
}

impl Breakdown {
    /// Self time of `layer`, 0 when it did not run.
    pub fn layer(&self, layer: Layer) -> f64 {
        if layer == Layer::Sim {
            return self.sim_s;
        }
        self.layers.get(&layer).copied().unwrap_or(0.0)
    }
}

/// Attributes the brackets of a traced run of the serial engine.
pub fn breakdown(ops: &BTreeMap<Op, OpStats>, calib: &Calibration) -> Breakdown {
    let traced_run_s = ops
        .get(&Op::Run)
        .map_or(0.0, |root| root.total_ns as f64 * 1e-9);
    let mut layers: BTreeMap<Layer, f64> = ROW_LAYERS.iter().map(|&l| (l, 0.0)).collect();
    let mut spans = 0;
    let mut counting_s = 0.0;
    for (op, st) in ops {
        let layer = op.layer();
        if matches!(
            layer,
            Layer::Sim | Layer::Sink | Layer::Setup | Layer::Calibration
        ) {
            continue;
        }
        spans += st.calls;
        let self_ns = st.self_ns as f64
            - st.calls as f64 * calib.inner_ns
            - st.child_calls as f64 * calib.outer_ns();
        let self_s = self_ns * 1e-9;
        if layer == Layer::Count {
            counting_s += self_s;
        } else {
            *layers.entry(layer).or_default() += self_s;
        }
    }
    let trace_s = spans as f64 * calib.pair_ns * 1e-9 + counting_s;
    Breakdown {
        traced_run_s,
        sim_s: traced_run_s - trace_s - layers.values().sum::<f64>(),
        layers,
        trace_s,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(calls: u64, total_ns: u64, self_ns: u64, child_calls: u64) -> OpStats {
        OpStats {
            calls,
            total_ns,
            self_ns,
            child_calls,
            ..OpStats::default()
        }
    }

    #[test]
    fn rows_and_tracing_cost_sum_to_the_traced_run() {
        let calib = Calibration {
            pair_ns: 40.0,
            inner_ns: 15.0,
        };
        let mut ops = BTreeMap::new();
        ops.insert(Op::Run, op(1, 1_000_000, 400_000, 100));
        ops.insert(Op::TcpPacket, op(100, 600_000, 500_000, 50));
        ops.insert(Op::TaqEnqueue, op(50, 100_000, 100_000, 0));
        let b = breakdown(&ops, &calib);
        let rows: f64 = b.sim_s + b.layers.values().sum::<f64>();
        assert!((rows + b.trace_s - b.traced_run_s).abs() < 1e-12);
        // 150 brackets: the engine keeps the root's self time minus the
        // outer part of its 100 direct children's brackets.
        assert!((b.sim_s - (400_000.0 - 100.0 * 25.0) * 1e-9).abs() < 1e-12);
        assert_eq!(b.spans, 150);
    }
}
