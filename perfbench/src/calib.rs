//! Host-speed calibration for the end-to-end times.
//!
//! On a shared host the speed a process gets drifts by up to 2x for
//! minutes at a time, which no statistic over one invocation's runs can
//! remove. So a fixed kernel, owned by the benchmark and untouched by any
//! change to the program, is timed right before and right after each timed
//! run, and the run's wall time is scaled by `REFERENCE_S` over the
//! kernel's mean time: the result is seconds on a host where the kernel
//! takes `REFERENCE_S`. A change that slows the program still slows the
//! calibrated time by the same factor; a slower host slows both and
//! cancels.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host, roughly its time on the
/// quiet two-vCPU host the benchmark was written on.
pub const REFERENCE_S: f64 = 0.02;

/// Times one pass of the calibration kernel: dense floating-point
/// multiply-adds plus square roots, cache-resident like the simulator's
/// and the networks' inner loops.
pub fn kernel_s() -> f64 {
    const N: usize = 128;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
    let mut c = vec![0.0; N * N];
    let t0 = Instant::now();
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
        for v in c.iter_mut() {
            *v = v.abs().sqrt();
        }
    }
    black_box(&c);
    t0.elapsed().as_secs_f64()
}
