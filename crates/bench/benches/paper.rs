//! The paper's §4, Figures 5–9 and Table 3: each cell of
//! `turbopool_bench::paper` run once. Env: TURBO_HOURS (default 10),
//! TURBO_QUICK.

use turbopool_bench::paper;

fn main() {
    paper::print_views(&paper::run(&paper::groups()));
}
