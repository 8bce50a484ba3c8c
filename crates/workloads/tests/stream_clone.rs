//! Property tests for stream cloning: a clone taken at any point of any
//! stream continues the original's sequence, and a clone of a fresh build
//! is the same stream as a second fresh build. Sharded runs rely on both:
//! every shard starts from a clone of one unpulled global stream.

use palermo_workloads::{TraceEntry, Workload, WorkloadSpec};
use proptest::prelude::*;

/// Footprint hint for every build (small graphs, quick Zipf set-up).
const HINT: u64 = 4 << 20;
/// Accesses compared after each clone.
const COMPARED: usize = 2000;

/// All ten Table II workloads, one mix of each kind, and a trace replay
/// of a file written under `name` in the temp directory.
fn specs(name: &str) -> Vec<WorkloadSpec> {
    let dir = std::env::temp_dir().join("palermo_stream_clone_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let entries: Vec<TraceEntry> = (0..3000u64)
        .map(|i| {
            let addr = (i * 7919 % 10_007) * 64 + i % 64;
            if i % 7 == 0 {
                TraceEntry::write(addr)
            } else {
                TraceEntry::read(addr)
            }
        })
        .collect();
    palermo_workloads::format::save_text(&path, &entries).unwrap();
    let mut specs: Vec<WorkloadSpec> = Workload::ALL.into_iter().map(Into::into).collect();
    for name in [
        "mix:rr:redis*2+pr+stream",
        "mix:zipf0.9:mcf+motif+llm",
        "mix:phase:redis+pr@100..+rm1@0..3000",
    ] {
        specs.push(WorkloadSpec::from_name(name).unwrap());
    }
    specs.push(WorkloadSpec::replay(path.display().to_string()));
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_clone_continues_the_original(k in 0u64..5000, seed in any::<u64>()) {
        for spec in specs("continues.trace") {
            let mut original = spec.build(HINT, seed).unwrap();
            for _ in 0..k {
                original.next_tagged();
            }
            let mut clone = original.clone();
            for i in 0..COMPARED {
                prop_assert_eq!(
                    clone.next_tagged(),
                    original.next_tagged(),
                    "{} diverged {} accesses after a clone at {}",
                    spec,
                    i,
                    k
                );
            }
            let tenants = original.tenant_count();
            if tenants > 1 {
                let mut clone = original.clone();
                for i in 0..COMPARED {
                    let t = (i % tenants) as u32;
                    prop_assert_eq!(
                        clone.next_tagged_for(t),
                        original.next_tagged_for(t),
                        "{}: tenant {} pull diverged",
                        spec,
                        t
                    );
                }
            }
        }
    }

    #[test]
    fn a_clone_of_a_fresh_build_is_a_fresh_build(seed in any::<u64>()) {
        for spec in specs("fresh.trace") {
            let mut clone = spec.build(HINT, seed).unwrap().clone();
            let mut fresh = spec.build(HINT, seed).unwrap();
            prop_assert_eq!(clone.footprint_bytes(), fresh.footprint_bytes());
            prop_assert_eq!(clone.tenant_count(), fresh.tenant_count());
            for i in 0..COMPARED {
                prop_assert_eq!(
                    clone.next_tagged(),
                    fresh.next_tagged(),
                    "{}: access {}",
                    spec,
                    i
                );
            }
        }
    }
}
