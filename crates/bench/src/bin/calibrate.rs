//! The paper-fidelity scorecard: every checked paper claim with the
//! model's value and its bound, then the per-panel comparison of model
//! winners against the paper's Table II. Both blocks are the markdown that
//! EXPERIMENTS.md carries verbatim.

use pmemflow_sched::scorecard::scorecard;

fn main() {
    let card = scorecard();
    print!("{}\n{}", card.claims_markdown(), card.panels_markdown());
}
