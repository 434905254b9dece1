//! The generator's integration suite, as one test binary: one module
//! per family of claims, all linked against `pt-topogen` once. Pick a
//! module with a path filter: `cargo test -p pt-topogen --test it generated_net::`.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use pt_topogen::{generate, InternetConfig, SyntheticInternet};

mod addr_index;
mod chain_tables;
mod generated_net;

/// The net `config` generates, built once for the whole binary: the
/// modules read the `default()` net (seed 2006), `hostile(7)`,
/// `hostile(2006)` and `tiny(42)` more than once between them. A config
/// is keyed by its `Debug` form, which names every field.
fn generated(config: &InternetConfig) -> &'static SyntheticInternet {
    static NETS: Mutex<BTreeMap<String, &'static OnceLock<SyntheticInternet>>> =
        Mutex::new(BTreeMap::new());
    let key = format!("{config:?}");
    let cell = *NETS.lock().unwrap().entry(key).or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| generate(config))
}
