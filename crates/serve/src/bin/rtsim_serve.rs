//! `rtsim-serve` — run the simulation service until told to stop.
//!
//! ```text
//! RTSIM_SERVE_PORT=0 RTSIM_GRID_CACHE=/tmp/cache rtsim-serve
//! ```
//!
//! Prints the bound address (`rtsim-serve listening on 127.0.0.1:PORT`)
//! on stdout so scripts using an ephemeral port (`RTSIM_SERVE_PORT=0`)
//! can discover it, then serves until a client posts `/v1/shutdown`.

use rtsim_serve::{start, ServeConfig};

fn main() {
    rtsim_kernel::ExecMode::from_env_or_exit();
    let config = ServeConfig::from_env();
    let handle = match start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("rtsim-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("rtsim-serve listening on {}", handle.addr());
    handle.wait();
}
