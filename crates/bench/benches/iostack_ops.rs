//! Benchmarks of the functional I/O stacks: put/get throughput and
//! crash-recovery cost for the NOVA-like filesystem and the NVStream-like
//! store over the simulated PMEM region.

use pmemflow_bench::harness::{bench, bench_with_setup, report_throughput};
use pmemflow_iostack::{NovaFs, NvStore, ObjectStore};
use pmemflow_pmem::PmemRegion;
use std::hint::black_box;

fn region(len: usize) -> PmemRegion {
    PmemRegion::new(len)
}

fn main() {
    // put: 16 versions of one stream per iteration, fresh store each time.
    for &size in &[2048usize, 64 * 1024, 1 << 20] {
        let payload = vec![0x5au8; size];
        let m = bench_with_setup(
            &format!("put/nvstream/{size}"),
            || NvStore::format(region(64 << 20)).unwrap(),
            |mut s| {
                for v in 1..=16u64 {
                    s.put("bench", v, &payload).unwrap();
                }
                s
            },
        );
        report_throughput(&format!("put/nvstream/{size}"), 16 * size as u64, m);
        let m = bench_with_setup(
            &format!("put/nova/{size}"),
            || NovaFs::format(region(64 << 20), 16, 1 << 20).unwrap(),
            |mut s| {
                for v in 1..=16u64 {
                    s.put("bench", v, &payload).unwrap();
                }
                s
            },
        );
        report_throughput(&format!("put/nova/{size}"), 16 * size as u64, m);
    }

    // get: read one committed 64 KiB version.
    let payload = vec![0xa5u8; 64 * 1024];
    let mut nvs = NvStore::format(region(16 << 20)).unwrap();
    let mut nova = NovaFs::format(region(16 << 20), 16, 1 << 20).unwrap();
    for v in 1..=8u64 {
        nvs.put("bench", v, &payload).unwrap();
        nova.put("bench", v, &payload).unwrap();
    }
    let m = bench("get-64KiB/nvstream", || {
        black_box(nvs.get("bench", 5).unwrap());
    });
    report_throughput("get-64KiB/nvstream", payload.len() as u64, m);
    let m = bench("get-64KiB/nova", || {
        black_box(nova.get("bench", 5).unwrap());
    });
    report_throughput("get-64KiB/nova", payload.len() as u64, m);

    // recovery: 256 committed 4 KiB objects, crash, recover.
    bench_with_setup(
        "recovery-256-objects/nvstream",
        || {
            let mut s = NvStore::format(region(32 << 20)).unwrap();
            for v in 1..=256u64 {
                s.put("stream", v, &vec![1u8; 4096]).unwrap();
            }
            let mut r = s.into_region();
            r.crash();
            r
        },
        |r| NvStore::recover(r).unwrap(),
    );
    bench_with_setup(
        "recovery-256-objects/nova",
        || {
            let mut s = NovaFs::format(region(32 << 20), 16, 1 << 20).unwrap();
            for v in 1..=256u64 {
                s.put("stream", v, &vec![1u8; 4096]).unwrap();
            }
            let mut r = s.into_region();
            r.crash();
            r
        },
        |r| NovaFs::recover(r).unwrap(),
    );
}
