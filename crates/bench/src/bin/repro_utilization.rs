//! Extension experiment: GPU memory utilization by policy.
//!
//! The paper attributes Best-Fit's Fig. 7 win to "maximizing the GPU
//! memory throughput" but never measures it. This binary integrates the
//! scheduler's utilization timeline over the Fig. 7 sweep: time-weighted
//! mean of live GPU memory over capacity, per policy and container count.

fn main() {
    print!("{}", convgpu_bench::report::utilization_report());
}
