//! Unit costs: host nanoseconds per operation of single layers, timed by
//! calling their public functions directly.
//!
//! Each cost is the median of several samples, each sample a batch of
//! operations timed with `Instant`. Inputs and results pass through
//! `black_box` so the work cannot be folded away.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cvm_apps::kv::gen::OpenLoopGen;
use cvm_dsm::{CvmBuilder, CvmConfig, Diff, PageId, VectorTime};
use cvm_net::{LatencyModel, Message, MsgKind, NetworkSim, NodeId};
use cvm_sim::{
    Burst, CoopScheduler, EventQueue, Log2Hist, ShardMap, ShardedEventQueue, SimRng, VirtualTime,
    Zipf,
};

use crate::median;

/// Samples per unit cost.
const SAMPLES: usize = 7;

/// One unit cost: a per-layer metric name and host ns per operation.
pub type UnitCost = (&'static str, f64);

/// Every unit cost, in the order the benchmark reports them.
pub fn all() -> Vec<UnitCost> {
    let (read, write) = access();
    vec![
        ("access.read_ns", read),
        ("access.write_ns", write),
        ("coop.resume_ns", coop_resume()),
        ("ctx.yield_ns", ctx_yield()),
        ("event.push_pop_ns", event_push_pop()),
        ("shard.push_pop_ns", shard_push_pop()),
        ("net.send_next_ns", net_send_next()),
        ("vt.merge_ns", vt_merge()),
        ("diff.create_sparse_ns", diff_create(8)),
        ("diff.create_dense_ns", diff_create(WORDS)),
        ("diff.apply_ns", diff_apply()),
        ("hist.record_ns", hist_record()),
        ("kv.gen_ns", kv_gen()),
    ]
}

/// Median over [`SAMPLES`] batches of `ops` operations, in ns per op.
fn per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// A cheap deterministic stream for inputs (xorshift).
fn next_lcg(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `SharedVec::read` and `write` on a page already resident and writable
/// on the only node, inside a 1 x 1 body.
fn access() -> (f64, f64) {
    const LEN: usize = 1024;
    const OPS: u64 = 200_000;
    let mut b = CvmBuilder::new(CvmConfig::paper(1, 1));
    let v = b.alloc::<f64>(LEN);
    let out = Arc::new(Mutex::new((0.0, 0.0)));
    let out2 = Arc::clone(&out);
    b.run(move |ctx| {
        for i in 0..LEN {
            v.write(ctx, i, i as f64);
        }
        let read = per_op(OPS, || {
            let mut sum = 0.0;
            for i in 0..OPS as usize {
                sum += v.read(ctx, black_box(i % LEN));
            }
            black_box(sum);
        });
        let write = per_op(OPS, || {
            for i in 0..OPS as usize {
                v.write(ctx, black_box(i % LEN), i as f64);
            }
        });
        *out2.lock().expect("unit-cost result lock") = (read, write);
    });
    let costs = *out.lock().expect("unit-cost result lock");
    costs
}

/// One baton round trip: `CoopScheduler::resume` into a thread whose
/// burst is a single `Yielder::block`.
fn coop_resume() -> f64 {
    const OPS: u64 = 2_000;
    let mut sched: CoopScheduler<u32> = CoopScheduler::new();
    let tid = sched.spawn(|y| {
        for _ in 0..OPS * SAMPLES as u64 {
            y.block(0);
        }
    });
    let cost = per_op(OPS, || {
        for _ in 0..OPS {
            black_box(sched.resume(tid));
        }
    });
    // One more resume lets the thread return, so it is joined.
    assert_eq!(sched.resume(tid), Burst::Finished);
    cost
}

/// `ThreadCtx::yield_now` in a 1 x 2 body: each yield hands the node to
/// the other thread through the driver.
fn ctx_yield() -> f64 {
    const OPS: u64 = 1_000;
    let b = CvmBuilder::new(CvmConfig::paper(1, 2));
    let out = Arc::new(Mutex::new(0.0));
    let out2 = Arc::clone(&out);
    b.run(move |ctx| {
        if ctx.global_id() == 0 {
            // Thread 1 yields once for each of thread 0's yields, so one
            // loop of OPS yields here covers 2 x OPS hand-offs.
            let cost = per_op(2 * OPS, || {
                for _ in 0..OPS {
                    ctx.yield_now();
                }
            });
            *out2.lock().expect("unit-cost result lock") = cost;
        } else {
            for _ in 0..OPS * SAMPLES as u64 {
                ctx.yield_now();
            }
        }
    });
    let cost = *out.lock().expect("unit-cost result lock");
    cost
}

/// One `pop` plus one `push` on an `EventQueue` held at depth 256.
fn event_push_pop() -> f64 {
    const OPS: u64 = 200_000;
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(512);
    for i in 0..256 {
        q.push(VirtualTime::from_ns(next_lcg(&mut x) % 100_000), i);
    }
    per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue stays at depth 256");
            let dt = next_lcg(&mut x) % 100_000;
            q.push(VirtualTime::from_ns(t.as_ns() + dt), black_box(e));
        }
    })
}

/// One `pop` plus one `push` on a `ShardedEventQueue` of 64 nodes in 2
/// shards, held at depth 256.
fn shard_push_pop() -> f64 {
    const OPS: u64 = 200_000;
    let mut x = 0x2545_F491_4F6C_DD1D;
    let mut q: ShardedEventQueue<u64> = ShardedEventQueue::new(ShardMap::new(64, 2), 4);
    for i in 0..256u64 {
        q.push(
            VirtualTime::from_ns(next_lcg(&mut x) % 100_000),
            (i % 64) as usize,
            i,
        );
    }
    per_op(OPS, || {
        for _ in 0..OPS {
            let (t, e) = q.pop().expect("queue stays at depth 256");
            let dt = next_lcg(&mut x) % 100_000;
            q.push(
                VirtualTime::from_ns(t.as_ns() + dt),
                (e % 64) as usize,
                black_box(e),
            );
        }
    })
}

/// One `NetworkSim::send` plus one `next` on 64 nodes under the paper's
/// latency model, 64 messages in flight.
fn net_send_next() -> f64 {
    const OPS: u64 = 100_000;
    const NODES: usize = 64;
    let mut x = 0x1234_5678_9ABC_DEF1;
    let mut net: NetworkSim<u64> = NetworkSim::new(NODES, LatencyModel::paper());
    let msg = |x: &mut u64| {
        let src = (next_lcg(x) % NODES as u64) as usize;
        let dst = (src + 1 + (next_lcg(x) % (NODES as u64 - 1)) as usize) % NODES;
        Message::new(NodeId(src), NodeId(dst), MsgKind::DiffRequest, 64, 0u64)
    };
    for _ in 0..NODES {
        net.send(VirtualTime::ZERO, msg(&mut x));
    }
    per_op(OPS, || {
        for _ in 0..OPS {
            let (now, m) = net.next().expect("messages stay in flight");
            black_box(m);
            net.send(now, msg(&mut x));
        }
    })
}

/// `VectorTime::merge` of two 64-node timestamps.
fn vt_merge() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut a = VectorTime::new(64);
    let mut b = VectorTime::new(64);
    for q in 0..64 {
        b.advance(q, q as u32);
    }
    let mut i = 0u32;
    per_op(OPS, || {
        for _ in 0..OPS {
            i = i.wrapping_add(1);
            b.advance((i % 64) as usize, i);
            a.merge(black_box(&b));
        }
        black_box(&a);
    })
}

/// 8 KB page, in 8-byte diff words.
const PAGE: usize = 8192;
const WORDS: usize = PAGE / 8;

/// A twin and a copy of it with `modified` words changed, spread evenly.
fn twin_pair(modified: usize) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    let mut cur = twin.clone();
    let stride = WORDS / modified;
    for w in (0..WORDS).step_by(stride).take(modified) {
        cur[w * 8] ^= 0xFF;
    }
    (twin, cur)
}

/// `Diff::create` on an 8 KB page with `modified` words changed.
fn diff_create(modified: usize) -> f64 {
    const OPS: u64 = 2_000;
    let (twin, cur) = twin_pair(modified);
    per_op(OPS, || {
        for _ in 0..OPS {
            black_box(Diff::create(PageId(0), black_box(&twin), black_box(&cur)));
        }
    })
}

/// `Diff::apply` of a fully modified 8 KB page.
fn diff_apply() -> f64 {
    const OPS: u64 = 5_000;
    let (twin, cur) = twin_pair(WORDS);
    let diff = Diff::create(PageId(0), &twin, &cur);
    let mut page = twin.clone();
    per_op(OPS, || {
        for _ in 0..OPS {
            diff.apply(black_box(&mut page));
        }
    })
}

/// `Log2Hist::record` over values spread across the buckets.
fn hist_record() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut x = 0xDEAD_BEEF_CAFE_F00D;
    let mut h = Log2Hist::new();
    per_op(OPS, || {
        for _ in 0..OPS {
            let v = next_lcg(&mut x);
            h.record(v >> (v % 48));
        }
        black_box(&h);
    })
}

/// One request's draws in the serve generator: `OpenLoopGen::next` plus
/// `Zipf::sample` over the serve-ladder table.
fn kv_gen() -> f64 {
    const OPS: u64 = 200_000;
    let zipf = Zipf::new(16 * 1024, 0.99);
    let mut rng = SimRng::seed_from(7);
    let mut gen = OpenLoopGen::new(1.0e6, u64::MAX / 2_000_000, 0);
    per_op(OPS, || {
        for _ in 0..OPS {
            black_box(gen.next(&mut rng));
            black_box(zipf.sample(&mut rng));
        }
    })
}
