//! Regenerate the paper's §II-B raw-device characterization: bandwidth
//! versus concurrency per direction and locality, loaded latency, and the
//! headline numbers (`--bin calibrate` compares them with the paper's).

use pmemflow_pmem::{device_report, DeviceProfile};

fn main() {
    print!("{}", device_report(&DeviceProfile::optane_gen1()));
}
