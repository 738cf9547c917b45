//! Rodinia `backprop`: neural-network training by back-propagation.
//!
//! A real two-layer perceptron trained with SGD on synthetic samples. The
//! dominant access pattern — repeated sweeps over the weight matrices with a
//! multiply-accumulate between touches — is exactly what gives the original
//! benchmark its `Treuse ≈ 1.6 s` at 8 GB (Table II).

use crate::buffer::{AddressSpace, TracedBuffer};
use crate::spec::{paper_label, DeployScale, Scale, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wade_trace::AccessSink;

/// Back-propagation trainer.
#[derive(Debug, Clone)]
pub(crate) struct Backprop {
    threads: u8,
    scale: Scale,
    input: usize,
    hidden: usize,
    output: usize,
    samples: usize,
    epochs: usize,
}

impl Backprop {
    /// Non-memory instructions modelled per weight access (multiply-add,
    /// index arithmetic).
    const GAP: u64 = 2;

    /// Creates the kernel at the given thread count and scale.
    pub(crate) fn new(threads: u8, scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { threads, scale, input: 128, hidden: 64, output: 16, samples: 48, epochs: 3 },
            Scale::Test => Self { threads, scale, input: 16, hidden: 8, output: 4, samples: 6, epochs: 2 },
        }
    }

    fn train(&self, sink: &mut dyn AccessSink, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut space = AddressSpace::new();
        let mut w1 = TracedBuffer::zeroed(&mut space, self.input * self.hidden);
        let mut w2 = TracedBuffer::zeroed(&mut space, self.hidden * self.output);
        let mut hidden_act = TracedBuffer::zeroed(&mut space, self.hidden);
        let mut out_act = TracedBuffer::zeroed(&mut space, self.output);
        let mut inputs = TracedBuffer::zeroed(&mut space, self.samples * self.input);

        // Xavier-ish init: real float bit patterns give realistic H_DP.
        for i in 0..w1.len() {
            w1.set_f64(sink, i, rng.gen_range(-0.5..0.5), 0);
            sink.on_instructions(1);
        }
        for i in 0..w2.len() {
            w2.set_f64(sink, i, rng.gen_range(-0.5..0.5), 0);
            sink.on_instructions(1);
        }
        for i in 0..inputs.len() {
            inputs.set_f64(sink, i, rng.gen_range(0.0..1.0), 0);
            sink.on_instructions(1);
        }

        let lr = 0.1;
        let mut last_err = 0.0;
        for epoch in 0..self.epochs {
            for s in 0..self.samples {
                // Threads split the sample stream (data parallelism over a
                // shared model, as the Rodinia OpenMP version does).
                let tid = ((epoch * self.samples + s) % self.threads as usize) as u8;
                let target = if s % 2 == 0 { 0.9 } else { 0.1 };

                // Forward: hidden = sigmoid(W1ᵀ x).
                for h in 0..self.hidden {
                    let mut acc = 0.0;
                    for i in 0..self.input {
                        let x = inputs.get_f64(sink, s * self.input + i, tid);
                        let w = w1.get_f64(sink, i * self.hidden + h, tid);
                        acc += x * w;
                        sink.on_instructions(Self::GAP);
                    }
                    hidden_act.set_f64(sink, h, sigmoid(acc), tid);
                    sink.on_instructions(4);
                }
                // Forward: out = sigmoid(W2ᵀ hidden).
                for o in 0..self.output {
                    let mut acc = 0.0;
                    for h in 0..self.hidden {
                        let a = hidden_act.get_f64(sink, h, tid);
                        let w = w2.get_f64(sink, h * self.output + o, tid);
                        acc += a * w;
                        sink.on_instructions(Self::GAP);
                    }
                    out_act.set_f64(sink, o, sigmoid(acc), tid);
                    sink.on_instructions(4);
                }

                // Backward: output deltas, then weight updates.
                let mut out_delta = vec![0.0; self.output];
                for (o, d) in out_delta.iter_mut().enumerate() {
                    let y = out_act.get_f64(sink, o, tid);
                    *d = y * (1.0 - y) * (target - y);
                    last_err = (target - y).abs();
                    sink.on_instructions(5);
                }
                for h in 0..self.hidden {
                    let a = hidden_act.get_f64(sink, h, tid);
                    let mut hidden_err = 0.0;
                    for (o, d) in out_delta.iter_mut().enumerate() {
                        let w = w2.get_f64(sink, h * self.output + o, tid);
                        hidden_err += *d * w;
                        w2.set_f64(sink, h * self.output + o, w + lr * *d * a, tid);
                        sink.on_instructions(Self::GAP + 1);
                    }
                    let hidden_delta = a * (1.0 - a) * hidden_err;
                    for i in 0..self.input {
                        let x = inputs.get_f64(sink, s * self.input + i, tid);
                        let w = w1.get_f64(sink, i * self.hidden + h, tid);
                        w1.set_f64(sink, i * self.hidden + h, w + lr * hidden_delta * x, tid);
                        sink.on_instructions(Self::GAP + 1);
                    }
                }
            }
        }
        last_err
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Workload for Backprop {
    fn scale(&self) -> Scale {
        self.scale
    }

    fn name(&self) -> String {
        paper_label("backprop", self.threads)
    }

    fn threads(&self) -> u8 {
        self.threads
    }

    fn run(&self, sink: &mut dyn AccessSink, seed: u64) {
        self.train(sink, seed);
    }

    fn deploy_scale(&self) -> DeployScale {
        DeployScale::with_reuse_scale(if self.threads > 1 { 2.95 } else { 0.54 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::{NullSink, Tracer};

    #[test]
    fn training_reduces_error() {
        // The network must actually learn: error after training below the
        // untrained ~0.5 gap.
        let bp = Backprop::new(1, Scale::Test);
        let mut sink = NullSink;
        let err = bp.train(&mut sink, 3);
        assert!(err < 0.5, "final error {err}");
    }

    #[test]
    fn weights_are_swept_repeatedly() {
        let bp = Backprop::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        bp.run(&mut tracer, 1);
        let r = tracer.report();
        // Each weight is touched once per sample per epoch at least.
        assert!(r.mean_reuse_distance > 0.0);
        assert!(r.mem_accesses > 10 * r.unique_words);
    }

    #[test]
    fn float_writes_carry_entropy() {
        let bp = Backprop::new(1, Scale::Test);
        let mut tracer = Tracer::new();
        bp.run(&mut tracer, 1);
        assert!(tracer.report().entropy_bits > 4.0);
    }

    #[test]
    fn parallel_variant_uses_all_threads() {
        let bp = Backprop::new(8, Scale::Test);
        assert_eq!(bp.threads(), 8);
        assert_eq!(bp.name(), "backprop(par)");
        let mut soc = CountingSink::default();
        bp.run(&mut soc, 2);
        assert!(soc.tids.iter().filter(|&&t| t).count() >= 4, "threads used: {:?}", soc.tids);
    }

    /// Minimal sink recording which tids appear.
    #[derive(Default)]
    struct CountingSink {
        tids: [bool; 8],
    }

    impl AccessSink for CountingSink {
        fn on_access(&mut self, access: wade_trace::MemAccess) {
            self.tids[(access.tid % 8) as usize] = true;
        }
        fn on_instructions(&mut self, _count: u64) {}
    }
}
