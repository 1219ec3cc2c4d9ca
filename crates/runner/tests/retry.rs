//! Retry semantics: a seeded lossy-link spam trial whose first attempt
//! is swallowed by packet loss (`Inconclusive`) converges on retry, and
//! the retry count lands in the campaign telemetry.

use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy, RetryPolicy};
use underradar_censor::CensorPolicy;
use underradar_core::verdict::Verdict;
use underradar_runner::{run_in_memory, JournalError};
use underradar_telemetry::Telemetry;

/// Pinned empirically: at 35% client-link loss, master seed 6 loses the
/// first spam attempt's DNS exchange (Inconclusive) and the reseeded
/// retry completes with the correct `Reachable` verdict.
const PINNED_MASTER_SEED: u64 = 6;

fn lossy_spec(master_seed: u64) -> CampaignSpec {
    CampaignSpec::new("retry-probe", master_seed)
        .target("twitter.com")
        .method(MethodKind::Spam)
        .policy(NamedPolicy::new("control", CensorPolicy::new()))
        .client_link_loss(0.35)
        .warmup(false)
        .run_secs(40)
}

#[test]
fn first_attempt_inconclusive_retry_converges() -> Result<(), JournalError> {
    let tel = Telemetry::enabled();
    let report = run_in_memory(&lossy_spec(PINNED_MASTER_SEED), 1, &tel)?;
    let trial = &report.trials[0];

    assert_eq!(trial.retries, 1, "exactly one retry should be needed");
    assert!(
        !matches!(trial.verdict, Verdict::Inconclusive(_)),
        "retry must converge, got {}",
        trial.verdict
    );
    assert!(trial.verdict_correct, "converged verdict must be correct");
    assert_eq!(report.total_retries(), 1);
    assert_eq!(report.inconclusive_final(), 0);

    // The retry count is visible in the merged campaign telemetry.
    let snap = tel.snapshot();
    assert_eq!(snap.counters.get("campaign.retries"), Some(&1));
    assert_eq!(snap.counters.get("campaign.method.spam.retries"), Some(&1));
    assert_eq!(snap.counters.get("campaign.trials"), Some(&1));
    Ok(())
}

#[test]
fn retry_budget_is_bounded() -> Result<(), JournalError> {
    // At 50% loss most seeds exhaust the budget: retries never exceed
    // the policy's max and the final verdict is reported as-is.
    let spec = lossy_spec(17)
        .client_link_loss(0.5)
        .retry(RetryPolicy::default());
    let report = run_in_memory(&spec, 1, &Telemetry::disabled())?;
    let trial = &report.trials[0];
    assert_eq!(trial.retries, RetryPolicy::default().max_retries);
    assert!(matches!(trial.verdict, Verdict::Inconclusive(_)));
    assert_eq!(report.inconclusive_final(), 1);
    Ok(())
}
