//! The four named workloads. Each runs one pass (set-up, timed section,
//! output checks) in the calling process.

pub mod campaign;
pub mod fleet;
pub mod serve;
pub mod solo;

use crate::run::{Ctx, Outcome};

pub const NAMES: [&str; 4] = ["solo_n256", "campaign_crowd", "serve_warm", "fleet_2proc"];

/// Runs one pass of the named workload; `None` for an unknown name.
pub fn run(name: &str, ctx: &mut Ctx) -> Option<Outcome> {
    Some(match name {
        "solo_n256" => solo::run(ctx),
        "campaign_crowd" => campaign::run(ctx),
        "serve_warm" => serve::run(ctx),
        "fleet_2proc" => fleet::run(ctx),
        _ => return None,
    })
}
