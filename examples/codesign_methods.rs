//! Compare HW/SW co-design strategies (Section VI-G): AutoSeg's
//! MIP-segmentation + heuristic allocation against random / Bayesian /
//! nested-Bayesian search over the same design space.
//!
//! ```text
//! cargo run --release --example codesign_methods
//! ```

use autoseg::codesign::{run_codesign, CodesignBudgets, Method};
use autoseg::RunCtl;
use deepburning_seg::prelude::*;

fn main() -> Result<(), autoseg::AutoSegError> {
    let model = zoo::mobilenet_v1();
    let budget = HwBudget::nvdla_small();
    // threads: 0 auto-sizes the DSE pool (DSE_THREADS env var, else all
    // cores); results are identical for any thread count.
    let iters = CodesignBudgets {
        hw_iters: 120,
        seg_iters: 240,
        seed: 42,
        threads: 0,
    };

    println!(
        "co-design methods on {} under the {} budget:",
        model.name(),
        budget.name
    );
    println!(
        "{:>16}  {:>7}  {:>10}  {:>12}",
        "method", "points", "best ms", "max E (uJ)"
    );
    for method in [
        Method::MipHeuristic,
        Method::MipRandom,
        Method::MipBaye,
        Method::BayeHeuristic,
        Method::BayeBaye,
    ] {
        let pts = run_codesign(&model, &budget, &iters, method, &RunCtl::none())?.points;
        let method = pts.first().map(|p| p.method).unwrap_or("(none)");
        let best = pts
            .iter()
            .map(|p| p.latency_s)
            .fold(f64::INFINITY, f64::min);
        let max_e = pts.iter().map(|p| p.energy_pj).fold(0.0f64, f64::max);
        println!(
            "{:>16}  {:>7}  {:>10.3}  {:>12.1}",
            method,
            pts.len(),
            best * 1e3,
            max_e / 1e6
        );
    }
    println!("\n(the MIP-Heuristic row is the AutoSeg engine; note its best");
    println!(" latency and the much lower worst-case energy of its points)");
    Ok(())
}
