//! The trace entropy coder: static-model rANS with order-2 byte-class
//! contexts, decoded a table lookup per byte.
//!
//! Trace blocks are columns of frame-of-reference varints (see
//! `dejavu::blocktrace`), so most of the modelling is done before this
//! stage: what is left is a few small residues per column and the
//! continuation bytes of the odd wide one. The coder models a byte by the
//! *classes* of the two bytes before it — zero, 1–3, 4–127, or ≥ 128 (a
//! varint lead followed by a continuation) — which separates the columns'
//! distributions well enough that a static table per context, written
//! once per block, lands within a few percent of an adaptive order-1
//! coder on the trace corpus at a fraction of its decode cost.
//!
//! ## Stream layout
//!
//! A block of `n` bytes is two *lanes*, `src[..n/2]` and `src[n/2..]`,
//! coded by two independent rANS states so that a decoder runs two
//! dependency chains at once. Each lane's context starts from two zero
//! bytes. How many tables a block has follows its length alone: one
//! context below 1 KiB (too few bytes to pay for more tables), sixteen
//! from there on, and from 2 KiB each lane gets its own set of sixteen —
//! a block's halves are usually different columns.
//!
//! ```text
//! tables   for each table, bit-packed LSB first:
//!            4 bits  precision pc (0 = the context never occurs)
//!            the symbols: Elias-gamma run lengths + 1, alternating
//!              absent / present, from symbol 0 up to 256
//!            gamma(freq) of every symbol but the last, whose frequency
//!              is what the others leave of 1 << pc
//!          zero bits up to a byte boundary
//! states   u64le lane A, u64le lane B   (each in [2^31, 2^64))
//! words    lane A's u32le words, read forward from here;
//!          lane B's u32le words, read backward from the stream's end
//! ```
//!
//! Every table is scaled to 8 bits (256 slots), so a decoder builds one
//! 16 KiB slot table per set and decodes a byte as: look up the slot the
//! state's low byte names, `x = freq · (x >> 8) + bias`, take a word if
//! the state fell below 2^31. Both lanes end on 2^31 with the two word
//! cursors meeting; a stream that reaches for a word past the other
//! lane's is refused on the spot, so decode work never outruns the
//! stream.
//!
//! ## How much a stream can decode to
//!
//! No frequency may exceed 255 of 256 ([`cap`]), so every byte costs at
//! least log2(256/255) > 1/178 bit. Each lane starts with at most 33 bits
//! of state above its final 2^31 and gains 32 per word, so a stream of
//! `len` bytes decodes to fewer than 1 420 · `len` bytes.
//! [`max_raw_len`] states 1 500 ·`len`, and readers refuse a longer claim
//! before they allocate (a 12-byte stream cannot claim 64 MiB).

/// The most bytes a stream of `len` bytes can decode to (module docs).
pub fn max_raw_len(len: usize) -> usize {
    len.saturating_mul(1_500)
}

/// Lower bound of a normalised state.
const L: u64 = 1 << 31;
/// Table precision: every table is scaled to `1 << PRECISION` slots.
const PRECISION: u32 = 8;
const SLOTS: usize = 1 << PRECISION;
/// Slots of one set of sixteen context tables.
const SET: usize = 16 * SLOTS;

/// The context class of a byte: zero, small, a varint's last byte, or a
/// varint byte with a continuation after it.
#[inline(always)]
fn class(b: u8) -> usize {
    (b != 0) as usize + (b >= 4) as usize + (b >= 0x80) as usize
}

/// `(contexts, sets)` for a block of `n` bytes.
fn shape(n: usize) -> (usize, usize) {
    (if n < 1024 { 1 } else { 16 }, if n < 2048 { 1 } else { 2 })
}

/// The largest frequency of `1 << pc`: one slot of 256 is always left to
/// another symbol, which bounds the expansion ([`max_raw_len`]).
fn cap(pc: u32) -> u32 {
    (1 << pc) - (1u32 << pc >> 8).max(1)
}

fn bit_len(n: usize) -> u32 {
    usize::BITS - n.leading_zeros()
}

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    bits: u32,
}

impl BitWriter {
    fn put(&mut self, v: u32, bits: u32) {
        self.acc |= (v as u64) << self.bits;
        self.bits += bits;
        while self.bits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.bits -= 8;
        }
    }

    /// Elias gamma of `v >= 1`: `bit_len(v) - 1` zeros, a one, then the
    /// bits of `v` below its top one.
    fn gamma(&mut self, v: u32) {
        let top = 31 - v.leading_zeros();
        self.put(1 << top, top + 1);
        self.put(v & !(1 << top), top);
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

struct BitReader<'a> {
    src: &'a [u8],
    pos: usize,
    acc: u64,
    bits: u32,
}

impl BitReader<'_> {
    fn refill(&mut self) {
        while self.bits <= 56 {
            let Some(&b) = self.src.get(self.pos) else {
                return;
            };
            self.acc |= (b as u64) << self.bits;
            self.pos += 1;
            self.bits += 8;
        }
    }

    fn get(&mut self, bits: u32) -> Option<u32> {
        if self.bits < bits {
            self.refill();
            if self.bits < bits {
                return None;
            }
        }
        let v = (self.acc & ((1 << bits) - 1)) as u32;
        self.acc >>= bits;
        self.bits -= bits;
        Some(v)
    }

    /// An Elias-gamma value below 512 (none written is larger).
    fn gamma(&mut self) -> Option<u32> {
        self.refill();
        let zeros = self.acc.trailing_zeros();
        if zeros > 8 || zeros >= self.bits {
            return None;
        }
        self.acc >>= zeros + 1;
        self.bits -= zeros + 1;
        Some(1 << zeros | self.get(zeros)?)
    }

    /// Where the byte-aligned rest of the stream starts, if the padding
    /// up to it is zero.
    fn align(&self) -> Option<usize> {
        let pad = self.bits % 8;
        (self.acc & ((1 << pad) - 1) == 0).then(|| self.pos - (self.bits / 8) as usize)
    }
}

/// Frequencies for the ascending `syms` (with `counts`, `total` in all)
/// summing to `1 << pc`, each at least 1 and at most `cap(pc)`.
fn normalize(counts: &[u32; 256], syms: &[u8], total: u32, pc: u32, freq: &mut [u32]) {
    let (m, cap) = (1u32 << pc, cap(pc));
    let mut sum = 0;
    for (f, &s) in freq.iter_mut().zip(syms) {
        *f = ((counts[s as usize] as u64 * m as u64 / total as u64) as u32).clamp(1, cap);
        sum += *f;
    }
    // What rounding left over or took too much goes to (or comes from)
    // the most frequent symbols first, where it costs least.
    let mut order = [0u8; 256];
    let order = &mut order[..syms.len()];
    for (j, o) in order.iter_mut().enumerate() {
        *o = j as u8;
    }
    order.sort_unstable_by_key(|&j| (std::cmp::Reverse(counts[syms[j as usize] as usize]), j));
    while sum != m {
        for &j in order.iter() {
            let f = &mut freq[j as usize];
            if sum < m {
                let add = (m - sum).min(cap - *f);
                *f += add;
                sum += add;
            } else {
                let sub = (sum - m).min(*f - 1);
                *f -= sub;
                sum -= sub;
            }
        }
    }
}

/// Alverson's reciprocal of each frequency, `(ceil(2^(s + 63) / f),
/// s - 1)` with `s = ceil(log2 f)`, so the encoder multiplies where it
/// would divide. Frequency 1 has none; [`EncSym::new`] makes up for the
/// all-ones stand-in.
const RECIPROCALS: [(u64, u32); SLOTS] = reciprocals();

const fn reciprocals() -> [(u64, u32); SLOTS] {
    let mut table = [(!0u64, 0u32); SLOTS];
    let mut f = 2;
    while f < SLOTS {
        let shift = 32 - (f as u32 - 1).leading_zeros();
        let rcp = (1u128 << (shift + 63)).div_ceil(f as u128);
        table[f] = (rcp as u64, shift - 1);
        f += 1;
    }
    table
}

/// One symbol of one table as the encoder applies it: Alverson's
/// reciprocal stands in for the division by the frequency.
#[derive(Clone, Copy)]
struct EncSym {
    /// A state at or above this emits a word first.
    x_max: u64,
    rcp: u64,
    shift: u32,
    bias: u32,
    cmpl: u32,
}

impl EncSym {
    /// The symbol occupying slots `start..start + freq` of 256.
    fn new(start: u32, freq: u32) -> EncSym {
        let (rcp, shift) = RECIPROCALS[freq as usize];
        EncSym {
            x_max: ((L >> PRECISION) << 32) * freq as u64,
            rcp,
            shift,
            // With the all-ones reciprocal, q = x - 1; the bias adds it back.
            bias: if freq == 1 {
                start + SLOTS as u32 - 1
            } else {
                start
            },
            cmpl: SLOTS as u32 - freq,
        }
    }

    /// Push `x` through this symbol; a word it sheds goes to `words[*n]`.
    #[inline(always)]
    fn put(&self, x: &mut u64, words: &mut [u32], n: &mut usize) {
        let shed = *x >= self.x_max;
        words[*n] = *x as u32;
        *n += shed as usize;
        if shed {
            *x >>= 32;
        }
        let q = ((*x as u128 * self.rcp as u128) >> 64) as u64 >> self.shift;
        *x += self.bias as u64 + q * self.cmpl as u64;
    }
}

/// Compress `src`; [`entropy_decompress`] with `src.len()` inverts it.
/// A pure function of the input, like every encoder in this crate.
pub fn entropy_compress(src: &[u8]) -> Vec<u8> {
    let n = src.len();
    if n == 0 {
        return Vec::new();
    }
    let (contexts, sets) = shape(n);
    let mask = contexts - 1;
    let h = n / 2;
    let set_b = (sets - 1) * contexts;

    // Each byte's table, and every table's counts.
    let mut counts = vec![[0u32; 256]; sets * contexts];
    let mut table_of = vec![0u8; n];
    let (lane_a, lane_b) = src.split_at(h);
    let (table_a, table_b) = table_of.split_at_mut(h);
    let (mut ta, mut tb) = (0, set_b);
    let mut count = |b: u8, t: &mut usize, set: usize, table: &mut u8| {
        *table = *t as u8;
        counts[*t][b as usize] += 1;
        *t = set + (((*t << 2) | class(b)) & mask);
    };
    for ((&a, oa), (&b, ob)) in lane_a
        .iter()
        .zip(table_a.iter_mut())
        .zip(lane_b.iter().zip(table_b.iter_mut()))
    {
        count(a, &mut ta, 0, oa);
        count(b, &mut tb, set_b, ob);
    }
    if let (Some(&b), Some(ob)) = (lane_b.get(h), table_b.get_mut(h)) {
        count(b, &mut tb, set_b, ob);
    }

    // The tables, written and readied for encoding.
    let mut w = BitWriter {
        out: Vec::with_capacity(256),
        acc: 0,
        bits: 0,
    };
    let mut syms: Vec<EncSym> = Vec::with_capacity(64);
    let mut sym_of = vec![[0u16; 256]; sets * contexts];
    for (t, counts) in counts.iter().enumerate() {
        let total: u32 = counts.iter().sum();
        if total == 0 {
            w.put(0, 4);
            continue;
        }
        let mut present = [0u8; 256];
        let mut k = 0;
        for s in 0..=255 {
            if counts[s as usize] > 0 {
                present[k] = s;
                k += 1;
            }
        }
        if k == 1 {
            // A lone symbol gets a neighbour with the slot the cap leaves.
            let (lone, other) = (present[0], (present[0] == 0) as u8);
            present[..2].copy_from_slice(&[lone.min(other), lone.max(other)]);
            k = 2;
        }
        let present = &present[..k];
        let pc = (bit_len(total as usize) + 1).clamp(bit_len(k - 1), PRECISION);
        w.put(pc, 4);
        let mut freq = [0u32; 256];
        let freq = &mut freq[..k];
        normalize(counts, present, total, pc, freq);
        let mut next = 0;
        let mut j = 0;
        while j < k {
            let s = present[j] as u32;
            let run = present[j..]
                .iter()
                .zip(s..)
                .take_while(|(&p, s)| p as u32 == *s)
                .count();
            w.gamma(s - next + 1);
            w.gamma(run as u32 + 1);
            next = s + run as u32;
            j += run;
        }
        if next < 256 {
            w.gamma(256 - next + 1);
        }
        let mut start = 0;
        for (j, (&s, &f)) in present.iter().zip(freq.iter()).enumerate() {
            if j + 1 < k {
                w.gamma(f);
            }
            sym_of[t][s as usize] = syms.len() as u16;
            let scale = PRECISION - pc;
            syms.push(EncSym::new(start << scale, f << scale));
            start += f;
        }
    }
    let mut out = w.finish();

    // Both lanes back to front. A byte costs at most 8 bits, so a lane
    // sheds at most a word per four bytes.
    let sym = |t: u8, s: u8| &syms[sym_of[t as usize][s as usize] as usize];
    let (mut wa, mut wb) = (vec![0u32; h / 4 + 2], vec![0u32; (n - h) / 4 + 2]);
    let (mut na, mut nb) = (0, 0);
    let (mut xa, mut xb) = (L, L);
    let (table_a, table_b) = table_of.split_at(h);
    if let (Some(&b), Some(&t)) = (lane_b.get(h), table_b.get(h)) {
        sym(t, b).put(&mut xb, &mut wb, &mut nb);
    }
    for ((&a, &ta), (&b, &tb)) in lane_a
        .iter()
        .zip(table_a)
        .zip(lane_b.iter().zip(table_b))
        .rev()
    {
        sym(tb, b).put(&mut xb, &mut wb, &mut nb);
        sym(ta, a).put(&mut xa, &mut wa, &mut na);
    }
    out.reserve(16 + 4 * (na + nb));
    out.extend_from_slice(&xa.to_le_bytes());
    out.extend_from_slice(&xb.to_le_bytes());
    for w in wa[..na].iter().rev().chain(&wb[..nb]) {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Invert [`entropy_compress`], producing exactly `raw_len` bytes, or
/// `None` for a stream that is not one: a table that does not sum, a
/// state out of range, a lane reaching past its words, or a decode that
/// does not end where the encoder began. A damaged stream can still
/// decode to wrong bytes of the right length; callers needing tamper
/// evidence CRC the raw payload, as the block formats do. Nothing is
/// allocated for a `raw_len` the stream could not produce.
pub fn entropy_decompress(src: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    if raw_len == 0 {
        return src.is_empty().then(Vec::new);
    }
    if raw_len > max_raw_len(src.len()) {
        return None;
    }
    let (contexts, sets) = shape(raw_len);
    let mut r = BitReader {
        src,
        pos: 0,
        acc: 0,
        bits: 0,
    };
    // Slot entry: symbol 0..8, frequency 8..16, bias 16..24, the
    // symbol's class 24..26. A context no table fills stays zero, a
    // frequency of 0, which empties the state and drains the stream.
    let mut slots = vec![0u32; sets * SET];
    for t in 0..sets * contexts {
        let pc = r.get(4)?;
        if pc == 0 {
            continue;
        }
        if pc > PRECISION {
            return None;
        }
        let mut syms = [0u8; 256];
        let (mut k, mut s, mut present) = (0, 0, false);
        while s < 256 {
            let run = r.gamma()? - 1;
            if present {
                for v in s..(s + run).min(256) {
                    syms[k] = v as u8;
                    k += 1;
                }
            }
            s += run;
            present = !present;
        }
        if s != 256 || k < 2 {
            return None;
        }
        let (m, cap, scale) = (1 << pc, cap(pc), PRECISION - pc);
        let row = &mut slots[t / contexts * SET + t % contexts * SLOTS..][..SLOTS];
        let mut cum = 0;
        for (j, &s) in syms[..k].iter().enumerate() {
            let f = if j + 1 < k { r.gamma()? } else { m - cum };
            if f == 0 || f > cap || cum + f > m {
                return None;
            }
            let entry = s as u32 | (f << scale) << 8 | (class(s) as u32) << 24;
            for (bias, slot) in row[(cum << scale) as usize..][..(f << scale) as usize]
                .iter_mut()
                .enumerate()
            {
                *slot = entry | (bias as u32) << 16;
            }
            cum += f;
        }
    }
    let start = r.align()?;
    let state = |i: usize| -> Option<u64> {
        let bytes = src.get(start + 8 * i..start + 8 * i + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?)).filter(|&x| x >= L)
    };
    let mut lanes = Lanes {
        src,
        front: start + 16,
        back: src.len(),
        x: [state(0)?, state(1)?],
        ctx: [0; 2],
        mask: contexts - 1,
    };
    if lanes.front > lanes.back {
        return None;
    }
    let (a, b) = slots.split_at(SET);
    let b = if sets == 2 { b } else { a };
    let mut out = vec![0u8; raw_len];
    lanes.run(a.try_into().ok()?, b.try_into().ok()?, &mut out)?;
    (lanes.x == [L, L] && lanes.front == lanes.back).then_some(out)
}

/// The decoder's two lanes mid-stream.
struct Lanes<'a> {
    src: &'a [u8],
    /// Lane A's next word; lane B's words end at `back`.
    front: usize,
    back: usize,
    x: [u64; 2],
    ctx: [usize; 2],
    mask: usize,
}

impl Lanes<'_> {
    /// One byte of lane `l` out of its set of slots.
    #[inline(always)]
    fn step(&mut self, l: usize, slots: &[u32; SET]) -> u8 {
        let x = self.x[l];
        let e = slots[(self.ctx[l] << PRECISION | (x as usize & (SLOTS - 1))) & (SET - 1)];
        let x = ((e >> 8) & 0xFF) as u64 * (x >> PRECISION) + ((e >> 16) & 0xFF) as u64;
        self.ctx[l] = ((self.ctx[l] << 2) | (e >> 24) as usize) & self.mask;
        // Take a word, without a branch: lane A from the front, lane B
        // from the back.
        let take = (x < L) as usize;
        let at = if l == 0 {
            self.front
        } else {
            self.back.wrapping_sub(4)
        };
        let word = self.src.get(at..at.wrapping_add(4)).map_or(0, |w| {
            u32::from_le_bytes(w.try_into().expect("four bytes")) as u64
        });
        self.x[l] = (x << (32 * take)) | (word & (take as u64).wrapping_neg());
        if l == 0 {
            self.front += 4 * take;
        } else {
            self.back -= 4 * take;
        }
        e as u8
    }

    /// Fill `out`: its first half from lane A, the rest from lane B.
    fn run(&mut self, a: &[u32; SET], b: &[u32; SET], out: &mut [u8]) -> Option<()> {
        let (oa, ob) = out.split_at_mut(out.len() / 2);
        let (ob, tail) = ob.split_at_mut(oa.len());
        for (ya, yb) in oa.iter_mut().zip(ob) {
            *ya = self.step(0, a);
            *yb = self.step(1, b);
            if self.front > self.back {
                return None;
            }
        }
        for yb in tail {
            *yb = self.step(1, b);
        }
        (self.front <= self.back).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let c = entropy_compress(data);
        let d = entropy_decompress(&c, data.len());
        assert_eq!(d.as_deref(), Some(data), "{} bytes", data.len());
        c
    }

    #[test]
    fn roundtrips_edge_cases() {
        assert!(roundtrip(b"").is_empty());
        for data in [
            &b"a"[..],
            &[0x00],
            &[0xFF; 3],
            b"hello rans",
            &[0x80, 0x01, 0x00],
        ] {
            roundtrip(data);
        }
        // every length across the one/sixteen-context and one/two-set
        // boundaries, odd and even
        let data: Vec<u8> = (0..2100u32)
            .map(|i| (i * 7 % 13) as u8 | ((i % 5 == 0) as u8 * 0x80))
            .collect();
        for n in [1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049, 2100] {
            roundtrip(&data[..n]);
        }
    }

    #[test]
    fn all_symbols_and_noise_roundtrip_near_eight_bits() {
        let uniform: Vec<u8> = (0..64 * 256).map(|i| i as u8).collect();
        let c = roundtrip(&uniform);
        assert!(c.len() < uniform.len() + uniform.len() / 32, "{}", c.len());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let noise: Vec<u8> = (0..8_192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Noise pays for 32 full tables and gains nothing; the block
        // formats store such a block raw.
        let c = roundtrip(&noise);
        assert!(c.len() < noise.len() + noise.len() / 8, "{}", c.len());
    }

    #[test]
    fn skewed_bytes_code_well_under_a_bit() {
        // 97% zeros: ~0.19 bits of order-0 entropy per byte.
        let mut data = vec![0u8; 20_000];
        for i in (0..data.len()).step_by(33) {
            data[i] = 1;
        }
        let c = roundtrip(&data);
        assert!(c.len() * 8 < data.len() / 2, "{} bytes", c.len());
    }

    #[test]
    fn a_run_of_one_byte_stays_within_the_expansion_bound() {
        // The most a stream can say per byte: every context at its cap.
        let data = vec![0u8; 1 << 20];
        let c = roundtrip(&data);
        assert!(
            data.len() <= max_raw_len(c.len()),
            "{} from {}",
            data.len(),
            c.len()
        );
        assert!(
            data.len() > max_raw_len(c.len()) / 2,
            "the bound is near tight"
        );
    }

    #[test]
    fn is_deterministic() {
        let data: Vec<u8> = (0..4_096u32).map(|i| (i * 7 % 251) as u8).collect();
        assert_eq!(entropy_compress(&data), entropy_compress(&data));
    }

    #[test]
    fn refuses_claims_the_stream_cannot_make() {
        let data = vec![3u8; 5_000];
        let c = entropy_compress(&data);
        assert_eq!(entropy_decompress(&c, data.len() + 1), None);
        assert_eq!(entropy_decompress(&c, data.len() - 1), None);
        assert_eq!(entropy_decompress(&c[..c.len() - 1], data.len()), None);
        assert_eq!(entropy_decompress(&[0; 12], 64 << 20), None);
        assert_eq!(entropy_decompress(&[], 1), None);
        assert_eq!(entropy_decompress(&[0], 0), None);
    }

    #[test]
    fn every_truncation_and_byte_flip_is_refused_or_wrong_not_a_panic() {
        let data: Vec<u8> = (0..3_000u32)
            .map(|i| (i % 7) as u8 * (i % 3) as u8)
            .collect();
        let c = entropy_compress(&data);
        for cut in 0..c.len() {
            assert_eq!(entropy_decompress(&c[..cut], data.len()), None, "cut {cut}");
        }
        for at in 0..c.len() {
            let mut bad = c.clone();
            bad[at] ^= 0x5A;
            let _ = entropy_decompress(&bad, data.len());
        }
    }
}
