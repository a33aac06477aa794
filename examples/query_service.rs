//! Many clients, one warm estimator: the socsense query service.
//!
//! Replays a simulated breaking-news campaign through a [`QueryService`]
//! while four client threads hammer it with posterior, ranking, and
//! bound queries. The service owns a single `StreamingEstimator` behind
//! a channel and refits it once per ingested batch; reads answer from
//! that fit and never refit, so every client shares the same warm fit
//! and the answers are byte-identical to a serial replay no matter how
//! the queries interleave.
//!
//! ```text
//! cargo run --release --example query_service
//! ```
//!
//! [`QueryService`]: socsense::serve::QueryService

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use socsense::graph::TimedClaim;
use socsense::serve::{QueryService, ServeConfig};
use socsense::twitter::{ScenarioConfig, TwitterDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = ScenarioConfig::kirkuk().scaled(0.08);
    let dataset = TwitterDataset::simulate(&scenario, 99)?;
    let claims: Vec<TimedClaim> = dataset.timed_claims();
    println!(
        "serving {} claims from {} to 4 concurrent clients\n",
        claims.len(),
        dataset.name
    );

    let service = QueryService::spawn(
        dataset.source_count(),
        dataset.assertion_count(),
        dataset.graph.clone(),
        ServeConfig::default(),
    )?;

    // Four clients query continuously while the replay is still feeding
    // batches in — the service answers from the latest warm fit.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let handle = service.handle();
            let stop = Arc::clone(&stop);
            let m = dataset.assertion_count();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let r = match c % 3 {
                        0 => handle.posterior(served as u32 % m).map(|_| ()),
                        1 => handle.top_sources(5).map(|_| ()),
                        _ => handle.stats().map(|_| ()),
                    };
                    if r.is_ok() {
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();

    let handle = service.handle();
    for batch in claims.chunks(claims.len().div_ceil(6)) {
        let ack = handle.ingest(batch.to_vec())?;
        println!("ingested batch -> {} claims total", ack.total_claims);
    }

    let ranks = handle.top_sources(5)?;
    println!("\ntop sources by estimated precision:");
    for (i, r) in ranks.iter().enumerate() {
        println!(
            "{:>3}. source {:<4} precision={:.4}",
            i + 1,
            r.source,
            r.precision
        );
    }

    stop.store(true, Ordering::Relaxed);
    let answered: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let stats = service.shutdown()?;
    println!(
        "\nclients got {answered} answers; the service refitted {} times, once per batch",
        stats.chain_refits
    );
    Ok(())
}
