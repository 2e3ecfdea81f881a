//! Figure 18: design points (latency vs energy) discovered by the five
//! co-design methods — AutoSeg's MIP-Heuristic against MIP-Random,
//! MIP-Baye, Baye-Heuristic and Baye-Baye — for AlexNet and MobileNetV1
//! under two hardware budgets.

use autoseg::codesign::{run_codesign_with, CodesignBudgets, DesignPoint, Method};
use autoseg::RunCtl;
use experiments::{codesign_budgets, f3, print_table, short_name, write_csv};
use nnmodel::zoo;
use pucost::EvalCache;
use spa_arch::HwBudget;

fn main() {
    println!("== Figure 18: co-design method comparison ==");
    let budgets = [HwBudget::eyeriss(), HwBudget::nvdla_small()];
    let models = ["alexnet", "mobilenet_v1"];
    // Defaults overridable via --hw-iters / --seg-iters / --seed /
    // --threads (and shrunk by DSE_SMOKE=1 for CI smoke runs).
    let iters = codesign_budgets(CodesignBudgets {
        hw_iters: 200,
        seg_iters: 400,
        seed: 7,
        threads: 0,
    });
    let pool = iters.pool();
    println!(
        "   ({} hw iters, {} seg iters, seed {}, {} threads)",
        iters.hw_iters,
        iters.seg_iters,
        iters.seed,
        pool.threads()
    );

    let mut scatter: Vec<Vec<String>> = Vec::new();
    let mut summary: Vec<Vec<String>> = Vec::new();
    for model_name in models {
        let model = zoo::by_name(model_name).expect("zoo model");
        for budget in &budgets {
            // One cache per (model, budget) pair: identical layer/PU
            // probes recur heavily across the five methods.
            let cache = EvalCache::default();
            let runs: Vec<Vec<DesignPoint>> = [
                Method::MipHeuristic,
                Method::MipRandom,
                Method::MipBaye,
                Method::BayeHeuristic,
                Method::BayeBaye,
            ]
            .into_iter()
            .map(|method| {
                run_codesign_with(
                    &model,
                    budget,
                    &iters,
                    method,
                    &pool,
                    &cache,
                    &RunCtl::none(),
                )
                .expect("run")
                .points
            })
            .collect();
            for pts in &runs {
                let method = pts.first().map(|p| p.method).unwrap_or("none");
                for p in pts {
                    scatter.push(vec![
                        short_name(model_name).to_string(),
                        budget.name.clone(),
                        p.method.to_string(),
                        format!("{:.6e}", p.latency_s),
                        format!("{:.6e}", p.energy_pj),
                        format!("{}x{}", p.shape.0, p.shape.1),
                    ]);
                }
                let best_lat = pts.iter().map(|p| p.latency_s).fold(f64::INFINITY, f64::min);
                let max_e = pts.iter().map(|p| p.energy_pj).fold(0.0f64, f64::max);
                summary.push(vec![
                    short_name(model_name).to_string(),
                    budget.name.clone(),
                    method.to_string(),
                    pts.len().to_string(),
                    f3(best_lat * 1e3),
                    f3(max_e / 1e10),
                ]);
            }
            let stats = cache.stats();
            println!(
                "   cache [{} / {}]: {} entries, {:.1}% hit rate ({} hits / {} misses)",
                short_name(model_name),
                budget.name,
                stats.entries,
                stats.hit_rate * 100.0,
                stats.hits,
                stats.misses
            );
            stats.publish("fig18.cache");
        }
    }
    let header = ["model", "budget", "method", "points", "best ms", "max E (1e10 pJ)"];
    print_table(&header, &summary);
    write_csv("fig18_summary.csv", &header, &summary);
    write_csv(
        "fig18_scatter.csv",
        &["model", "budget", "method", "latency_s", "energy_pj", "shape"],
        &scatter,
    );
    obs::finish();
}
