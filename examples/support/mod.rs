//! The environment knobs the examples share.
//!
//! - `PALERMO_REQUESTS=<n>` sets the measured-request budget to `n` and the
//!   warm-up to `n / 4`, at least 1.
//! - `PALERMO_SERIAL_CHECK=1` makes an example re-run its grid serially and
//!   check that the results are byte-identical.
//!
//! Any other value is an error that names it: a run that silently fell
//! back to its default budget would look like a run at the requested one.
//!
//! This is a directory module, so Cargo does not build it as an example of
//! its own; `tests/examples_smoke.rs` tests the parsers through `#[path]`.

#![allow(dead_code, reason = "each example uses only some of the knobs")]

use palermo::sim::system::SystemConfig;
use std::env::{self, VarError};

/// Applies `PALERMO_REQUESTS` to `cfg`; leaves it unchanged when the
/// variable is unset.
pub fn apply_request_budget(cfg: &mut SystemConfig) -> Result<(), String> {
    if let Some(n) = parse_request_budget(var("PALERMO_REQUESTS")?.as_deref())? {
        cfg.measured_requests = n;
        cfg.warmup_requests = (n / 4).max(1);
    }
    Ok(())
}

/// Whether `PALERMO_SERIAL_CHECK` asks for the serial re-run.
pub fn serial_check() -> Result<bool, String> {
    parse_serial_check(var("PALERMO_SERIAL_CHECK")?.as_deref())
}

/// `None` when `PALERMO_REQUESTS` is unset, the request count when it is
/// one, and an error naming the value otherwise.
pub fn parse_request_budget(value: Option<&str>) -> Result<Option<u64>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|e| format!("PALERMO_REQUESTS={v:?} is not a request count: {e}"))
        })
        .transpose()
}

/// `false` when `PALERMO_SERIAL_CHECK` is unset, `true` when it is `1`, and
/// an error naming the value otherwise.
pub fn parse_serial_check(value: Option<&str>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!(
            "PALERMO_SERIAL_CHECK={v:?}: set it to 1 or leave it unset"
        )),
    }
}

fn var(name: &str) -> Result<Option<String>, String> {
    match env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(VarError::NotPresent) => Ok(None),
        Err(e) => Err(format!("{name}: {e}")),
    }
}
