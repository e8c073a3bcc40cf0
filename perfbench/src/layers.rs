//! Layer probes for the traced run. Each one times calls into a single
//! layer's public surface on the workload's own inputs, on the calling
//! thread and off the store: the code (`Code::encode`/`decode`), the
//! protocol (a bare `Simulation` driven by `first_enabled_event`/`step`),
//! and the wire codec (`frame::encode_frame`/`decode_payload`).

use crate::gen::{Op, OpStream, Pool, PROBE_STREAM};
use crate::Workload;
use rsb_coding::{Code, Replication, Value};
use rsb_fpsm::{OpRequest, OpResult, RandomScheduler, SimEvent};
use rsb_registers::{Abd, Adaptive, RegisterProtocol};
use rsb_store::frame::{decode_payload, encode_frame, Frame};
use rsb_store::ProtocolSpec;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe measures for, at least.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Concurrent writers in one protocol burst: the hot-key workload's
/// in-flight count.
const BURST_WRITERS: usize = 16;

/// Bursts per run; a fixed count, so the burst's storage figure is exact
/// for a given seed.
const BURSTS: u64 = 16;

/// Registers the protocol replay spreads the op stream over.
const REPLAY_KEYS: usize = 16;

fn probe_stream(w: &Workload, pool: &Pool, seed: u64) -> OpStream {
    OpStream::new(seed, PROBE_STREAM, w.keys, w.write_fraction, pool)
}

#[derive(Debug)]
pub struct CodingCost {
    pub encode_us: f64,
    /// Mean over every `k`-of-`n` block subset, each equally often.
    pub decode_us: f64,
    /// Mean over the subsets that hold a non-systematic block, which
    /// take the inversion and multiply-accumulate path.
    pub decode_parity_us: f64,
    pub encode_gbps: f64,
}

/// `Code::encode` of the workload's values and `Code::decode` from every
/// `k`-of-`n` subset of the blocks in turn, with the code the workload's
/// protocol stores values with: Reed–Solomon for `Adaptive`, replication
/// for `Abd`. A store read decodes whichever `k` blocks its quorum
/// returned first, parity blocks included, so the all-systematic subset
/// (a plain copy) is only one of the cases. ABD never calls the coder;
/// on it these figures are a reference, not a cost the store pays.
pub fn coding(w: &Workload, pool: &Pool, seed: u64) -> Result<CodingCost, String> {
    let cfg = w.register();
    let mut stream = probe_stream(w, pool, seed);
    let values: Vec<Value> = (0..16).map(|i| stream.stamped(i % w.keys).1).collect();
    match w.protocol {
        ProtocolSpec::Adaptive => {
            let code = cfg.code().map_err(|e| e.to_string())?;
            time_code(&code, &values)
        }
        _ => {
            let code = Replication::new(cfg.n, cfg.value_len).map_err(|e| e.to_string())?;
            time_code(&code, &values)
        }
    }
}

/// Every `k`-subset of `0..n`, in lexicographic order.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut pick: Vec<usize> = (0..k).collect();
    loop {
        out.push(pick.clone());
        let Some(i) = (0..k).rev().find(|&i| pick[i] < n - k + i) else {
            return out;
        };
        pick[i] += 1;
        for j in i + 1..k {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

fn time_code<C: Code>(code: &C, values: &[Value]) -> Result<CodingCost, String> {
    let k = code.reconstruction_threshold();
    let sets = subsets(code.encode(&values[0]).len(), k);
    let mut dec = vec![Duration::ZERO; sets.len()];
    let (mut enc, mut n) = (Duration::ZERO, 0usize);
    let start = Instant::now();
    while n < 64 || start.elapsed() < PROBE_BUDGET {
        let v = &values[n % values.len()];
        let t0 = Instant::now();
        let blocks = code.encode(black_box(v));
        enc += t0.elapsed();
        for (set, t) in sets.iter().zip(&mut dec) {
            let chosen: Vec<_> = set.iter().map(|&i| blocks[i].clone()).collect();
            let t0 = Instant::now();
            let back = code.decode(black_box(&chosen));
            *t += t0.elapsed();
            if back.as_ref() != Ok(v) {
                return Err(format!(
                    "{:?} decode from blocks {set:?} did not return the encoded value",
                    code.kind()
                ));
            }
        }
        n += 1;
    }
    let us = |t: Duration, count: usize| t.as_secs_f64() / count as f64 * 1e6;
    let parity: Vec<Duration> = sets
        .iter()
        .zip(&dec)
        .filter(|(set, _)| set.iter().any(|&i| i >= k))
        .map(|(_, &t)| t)
        .collect();
    let encode_s = enc.as_secs_f64() / n as f64;
    Ok(CodingCost {
        encode_us: encode_s * 1e6,
        decode_us: us(dec.iter().sum(), n * sets.len()),
        decode_parity_us: us(parity.iter().sum(), n * parity.len()),
        encode_gbps: values[0].len() as f64 / encode_s / 1e9,
    })
}

#[derive(Debug)]
pub struct ProtocolCost {
    pub write_us: f64,
    pub read_us: f64,
    pub events_per_op: f64,
    pub rmws_per_op: f64,
    pub burst_write_us: f64,
    pub burst_peak_storage_ratio: f64,
}

pub fn protocol(w: &Workload, pool: &Pool, seed: u64) -> Result<ProtocolCost, String> {
    let cfg = w.register();
    match w.protocol {
        ProtocolSpec::Adaptive => replay(&Adaptive::new(cfg), w, pool, seed),
        _ => replay(&Abd::new(cfg), w, pool, seed),
    }
}

/// The workload's op stream, one op at a time, each stepped to
/// quiescence (stragglers included, as the store's drivers do) and its
/// settled history compacted; then [`BURSTS`] bursts of
/// [`BURST_WRITERS`] concurrent writes under a seeded random
/// interleaving.
fn replay<P: RegisterProtocol>(
    proto: &P,
    w: &Workload,
    pool: &Pool,
    seed: u64,
) -> Result<ProtocolCost, String> {
    let err = |e: rsb_fpsm::SimError| e.to_string();
    let mut regs: Vec<_> = (0..REPLAY_KEYS.min(w.keys))
        .map(|_| {
            let mut sim = proto.new_sim();
            let client = proto.add_client(&mut sim);
            (sim, client, proto.config().initial_value())
        })
        .collect();
    let mut stream = probe_stream(w, pool, seed);
    let (mut write_t, mut read_t) = (Duration::ZERO, Duration::ZERO);
    let (mut writes, mut reads, mut events, mut rmws) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while writes + reads < 64 || start.elapsed() < PROBE_BUDGET {
        let (key, req) = match stream.next_op() {
            Op::Read(k) => (k, OpRequest::Read),
            Op::Write(k, _, v) => (k, OpRequest::Write(v)),
        };
        let n_regs = regs.len();
        let (sim, client, last) = &mut regs[key % n_regs];
        let write = req.written_value().cloned();
        let t0 = Instant::now();
        let op = sim.invoke(*client, req).map_err(err)?;
        while let Some(ev) = sim.first_enabled_event() {
            sim.step(ev).map_err(err)?;
            events += 1;
            rmws += u64::from(matches!(ev, SimEvent::Apply(_)));
        }
        let result = sim.op_record(op).result.clone();
        sim.compact_history();
        let t = t0.elapsed();
        match (write, result) {
            (Some(v), Some(OpResult::Write)) => {
                *last = v;
                write_t += t;
                writes += 1;
            }
            (None, Some(OpResult::Read(v))) if v == *last => {
                read_t += t;
                reads += 1;
            }
            (_, other) => return Err(format!("{} replay op returned {other:?}", proto.name())),
        }
    }
    let ops = (writes + reads) as f64;
    let per = |t: Duration, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.as_secs_f64() / n as f64 * 1e6
        }
    };

    let mut burst_t = Duration::ZERO;
    let mut peak_bits = 0u64;
    for b in 0..BURSTS {
        let mut sim = proto.new_sim();
        let values: Vec<Value> = (0..BURST_WRITERS).map(|_| stream.stamped(0).1).collect();
        let clients: Vec<_> = values.iter().map(|_| proto.add_client(&mut sim)).collect();
        let mut scheduler = RandomScheduler::new(seed ^ (b + 1).wrapping_mul(0x9e37_79b9));
        let t0 = Instant::now();
        for (c, v) in clients.iter().zip(values) {
            sim.invoke(*c, OpRequest::Write(v)).map_err(err)?;
        }
        let outcome = rsb_fpsm::run(&mut sim, &mut scheduler, 1 << 24);
        burst_t += t0.elapsed();
        if !outcome.is_quiescent() || !sim.is_quiescent() {
            return Err(format!("{} burst did not quiesce", proto.name()));
        }
        peak_bits += sim.peak_storage_bits();
    }
    Ok(ProtocolCost {
        write_us: per(write_t, writes),
        read_us: per(read_t, reads),
        events_per_op: events as f64 / ops,
        rmws_per_op: rmws as f64 / ops,
        burst_write_us: per(burst_t, BURSTS * BURST_WRITERS as u64),
        burst_peak_storage_ratio: peak_bits as f64
            / BURSTS as f64
            / proto.config().data_bits() as f64,
    })
}

#[derive(Debug)]
pub struct FrameCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// `encode_frame` and `decode_payload` over the request frames the
/// workload's op stream would put on the wire.
pub fn frames(w: &Workload, keys: &[String], pool: &Pool, seed: u64) -> Result<FrameCost, String> {
    let mut stream = probe_stream(w, pool, seed);
    let frames: Vec<Frame> = (1..=256u64)
        .map(|id| match stream.next_op() {
            Op::Read(k) => Frame::ReadReq {
                id,
                key: keys[k].clone(),
            },
            Op::Write(k, _, v) => Frame::WriteReq {
                id,
                key: keys[k].clone(),
                value: v.as_bytes().to_vec(),
            },
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut buf = Vec::new();
            encode_frame(f, &mut buf);
            buf
        })
        .collect();
    for (f, e) in frames.iter().zip(&encoded) {
        if decode_payload(&e[4..]).as_ref() != Ok(f) {
            return Err(format!("frame {} did not survive a round trip", f.kind()));
        }
    }
    let mut buf = Vec::new();
    let (mut enc, mut dec, mut rounds) = (Duration::ZERO, Duration::ZERO, 0u32);
    let start = Instant::now();
    while rounds < 4 || start.elapsed() < PROBE_BUDGET {
        let t0 = Instant::now();
        for f in &frames {
            buf.clear();
            encode_frame(black_box(f), &mut buf);
            black_box(&buf);
        }
        let t1 = Instant::now();
        for e in &encoded {
            black_box(decode_payload(black_box(&e[4..])).map_err(|e| e.to_string())?);
        }
        dec += t1.elapsed();
        enc += t1 - t0;
        rounds += 1;
    }
    let per = |t: Duration| t.as_secs_f64() * 1e9 / f64::from(rounds) / frames.len() as f64;
    Ok(FrameCost {
        encode_ns: per(enc),
        decode_ns: per(dec),
    })
}

#[cfg(test)]
mod tests {
    use super::subsets;

    #[test]
    fn subsets_enumerate_every_choice_once() {
        assert_eq!(
            subsets(4, 2),
            [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        );
        assert_eq!(subsets(4, 1).len(), 4);
        assert_eq!(subsets(3, 3), [[0, 1, 2]]);
    }
}
