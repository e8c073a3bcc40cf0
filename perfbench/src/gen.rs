//! Workload inputs, built outside the measured path: a pool of payloads
//! made once from the seed, and per-client op streams that stamp each
//! write with a unique `(key, seq)` id by copying a pooled payload and
//! overwriting its first [`STAMP_LEN`] bytes.

use rsb_coding::Value;

/// Bytes at the front of every written value that identify it: the key
/// index plus one, then the write's sequence number (both little-endian
/// `u64`). A zero key field marks the register's initial value `v₀`.
pub const STAMP_LEN: usize = 16;

/// Sequence numbers are `count * SEQ_STRIDE + client + 1`, so every
/// stream in a run (load clients, the prefill writer, the probes) stamps
/// distinct ids.
const SEQ_STRIDE: u64 = 64;

/// Stream id of the writer that prefills every key during set-up.
pub const PREFILL_STREAM: u64 = SEQ_STRIDE - 1;

/// Stream id of the layer probes that replay the op stream off-store.
pub const PROBE_STREAM: u64 = SEQ_STRIDE - 2;

/// Stands in for the sequence number of a read whose value failed
/// [`Pool::read_seq`]; no write uses it.
pub const BAD_SEQ: u64 = u64::MAX;

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Payloads every write copies from; built once per run.
#[derive(Debug)]
pub struct Pool {
    payloads: Vec<Vec<u8>>,
}

impl Pool {
    const SIZE: usize = 8;

    pub fn new(seed: u64, value_len: usize) -> Self {
        assert!(value_len >= STAMP_LEN, "values must hold a stamp");
        let mut state = seed ^ 0x5eed_9a71_0ad5_0000;
        let payloads = (0..Self::SIZE)
            .map(|_| {
                let mut p = Vec::with_capacity(value_len + 8);
                while p.len() < value_len {
                    p.extend_from_slice(&splitmix(&mut state).to_le_bytes());
                }
                p.truncate(value_len);
                p
            })
            .collect();
        Pool { payloads }
    }

    /// Which payload a write with sequence number `seq` copies.
    fn index(seq: u64) -> usize {
        (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61) as usize % Self::SIZE
    }

    /// The sequence number stamped in `value`, read from key `key`: `0`
    /// for `v₀`, `None` when the value is neither `v₀` nor one some
    /// write to that key could have produced.
    pub fn read_seq(&self, key: usize, value: &[u8]) -> Option<u64> {
        if value.len() != self.payloads[0].len() {
            return None;
        }
        let (stamp, body) = value.split_at(STAMP_LEN);
        let owner = u64::from_le_bytes(stamp[..8].try_into().expect("8-byte field"));
        let seq = u64::from_le_bytes(stamp[8..].try_into().expect("8-byte field"));
        if owner == 0 {
            return value.iter().all(|&b| b == 0).then_some(0);
        }
        let ok = owner == key as u64 + 1
            && seq != 0
            && body == &self.payloads[Self::index(seq)][STAMP_LEN..];
        ok.then_some(seq)
    }
}

/// One generated operation on a key index; a write carries its
/// sequence number and stamped value.
#[derive(Debug)]
pub enum Op {
    Read(usize),
    Write(usize, u64, Value),
}

/// One closed-loop client's deterministic operation stream.
#[derive(Debug)]
pub struct OpStream {
    rng: u64,
    keys: usize,
    write_fraction: f64,
    stream: u64,
    count: u64,
    /// This stream's own copy of the pool, stamped in place, so a write
    /// costs one copy of its value.
    payloads: Vec<Vec<u8>>,
}

impl OpStream {
    pub fn new(seed: u64, stream: u64, keys: usize, write_fraction: f64, pool: &Pool) -> Self {
        let mut rng = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
        splitmix(&mut rng);
        OpStream {
            rng,
            keys,
            write_fraction,
            stream,
            count: 0,
            payloads: pool.payloads.clone(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let key = (splitmix(&mut self.rng) % self.keys as u64) as usize;
        let unit = (splitmix(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.write_fraction {
            let (seq, value) = self.stamped(key);
            Op::Write(key, seq, value)
        } else {
            Op::Read(key)
        }
    }

    /// A fresh stamped value for `key`, with its sequence number.
    pub fn stamped(&mut self, key: usize) -> (u64, Value) {
        self.count += 1;
        let seq = self.count * SEQ_STRIDE + self.stream + 1;
        let buf = &mut self.payloads[Pool::index(seq)];
        buf[..8].copy_from_slice(&(key as u64 + 1).to_le_bytes());
        buf[8..STAMP_LEN].copy_from_slice(&seq.to_le_bytes());
        (seq, Value::from_bytes(&buf[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_values_check_against_their_key_only() {
        let pool = Pool::new(7, 64);
        let mut s = OpStream::new(7, 0, 8, 1.0, &pool);
        let (seq, v) = s.stamped(3);
        assert_eq!(pool.read_seq(3, v.as_bytes()), Some(seq));
        assert_eq!(pool.read_seq(4, v.as_bytes()), None);
        assert_eq!(pool.read_seq(5, &[0; 64]), Some(0));
        let mut forged = v.as_bytes().to_vec();
        forged[40] ^= 1;
        assert_eq!(pool.read_seq(3, &forged), None);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let pool = Pool::new(1, 32);
        let ops = |stream| {
            let mut s = OpStream::new(1, stream, 16, 0.5, &pool);
            (0..32)
                .map(|_| match s.next_op() {
                    Op::Read(k) => (k, None),
                    Op::Write(k, _, v) => (k, Some(v)),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(0), ops(0));
        assert_ne!(ops(0), ops(1));
    }
}
