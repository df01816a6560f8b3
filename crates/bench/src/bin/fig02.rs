//! Regenerate the paper's Fig. 2: the considered workflow deployment
//! alternatives, rendered from the placement map the executor uses
//! ([`SchedConfig::writer_locality`]), so the diagram is guaranteed to
//! match the implementation.

use pmemflow_core::{SchedConfig, CORES_PER_SOCKET};
use pmemflow_des::Locality;

fn main() {
    println!(
        "Fig. 2: deployment alternatives on a dual-socket node \
         ({CORES_PER_SOCKET} cores/socket, PMEM on socket 0)\n"
    );
    for config in SchedConfig::ALL {
        // The PMEM channel is on socket 0; the local component runs there.
        let (socket0, socket1) = match config.writer_locality() {
            Locality::Local => ("simulation", "analytics"),
            Locality::Remote => ("analytics", "simulation"),
        };
        println!("{} ({:?} execution):", config, config.mode);
        println!("  socket 0 [PMEM channel here]: {socket0} ranks on cores 0..");
        println!("  socket 1                    : {socket1} ranks on cores {CORES_PER_SOCKET}..");
        println!(
            "  simulation writes are {:?}, analytics reads are {:?}\n",
            config.writer_locality(),
            config.reader_locality(),
        );
    }
    println!(
        "Serial configurations schedule the analytics component after the\n\
         simulation completes; parallel configurations pipeline them with\n\
         overlapping PMEM access (§II-A)."
    );
}
