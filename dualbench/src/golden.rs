//! The golden file: exact counts every correct build must reproduce.
//!
//! `golden.json` holds, per workload, the cells, summed simulated
//! cycles and code words, the digest of per-cell cycles, and the cache
//! hits and misses per layer of one pass over the workload's inputs
//! (the format of [`Exact::to_json`]). A change that alters simulated
//! results or cache behaviour fails here, however fast it is.

use dsp_driver::json::{self, Value};

use crate::{Exact, HitMiss, Workload, CACHE_LAYERS};

/// The golden file, compiled into the binary.
pub const GOLDEN: &str = include_str!("../golden.json");

/// Parse the golden entry of `workload`.
///
/// # Errors
///
/// Describes a missing or malformed entry.
pub fn expected(workload: Workload) -> Result<Exact, String> {
    let doc = json::parse(GOLDEN).map_err(|e| format!("golden.json is not JSON: {e}"))?;
    let entry = doc
        .get("workloads")
        .and_then(|w| w.get(workload.name()))
        .ok_or_else(|| format!("golden.json has no entry for {}", workload.name()))?;
    let num = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("golden {}: `{k}` is missing", workload.name()))
    };
    let digest = entry
        .get("digest")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("golden {}: `digest` is missing", workload.name()))?;
    let mut cache = [HitMiss::default(); 4];
    for (slot, layer) in cache.iter_mut().zip(CACHE_LAYERS) {
        let pair = entry
            .get("cache")
            .and_then(|c| c.get(layer))
            .and_then(Value::as_array)
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("golden {}: cache `{layer}` is missing", workload.name()))?;
        let n = |v: &Value| v.as_u64().unwrap_or(u64::MAX);
        *slot = HitMiss {
            hits: n(&pair[0]),
            misses: n(&pair[1]),
        };
    }
    Ok(Exact {
        cells: num("cells")?,
        sim_cycles: num("sim_cycles")?,
        inst_words: num("inst_words")?,
        digest,
        cache,
    })
}

/// Compare a run's exact counts with the golden entry.
///
/// # Errors
///
/// One message per differing count.
pub fn check(workload: Workload, got: &Exact) -> Result<(), Vec<String>> {
    let measured = format!("measured counts: {}", got.to_json());
    let want = expected(workload).map_err(|e| vec![e, measured.clone()])?;
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, g: u64, w: u64| {
        if g != w {
            diffs.push(format!("{what} is {g}, golden.json has {w}"));
        }
    };
    cmp("cells", got.cells, want.cells);
    cmp("sim_cycles", got.sim_cycles, want.sim_cycles);
    cmp("inst_words", got.inst_words, want.inst_words);
    cmp("cycle digest", got.digest, want.digest);
    for ((layer, g), w) in CACHE_LAYERS.iter().zip(got.cache).zip(want.cache) {
        cmp(&format!("cache.{layer}.hits"), g.hits, w.hits);
        cmp(&format!("cache.{layer}.misses"), g.misses, w.misses);
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        diffs.push(measured);
        Err(diffs)
    }
}
