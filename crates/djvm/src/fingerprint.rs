//! Execution fingerprinting: the paper's definition of "identical
//! behaviour", made checkable.
//!
//! §2 of the paper defines two executions as identical when (1) their
//! event sequences are identical and (2) the program states after
//! corresponding events are identical. The fingerprint is a 64-bit rolling
//! hash over exactly those observables: per-instruction `(thread, method,
//! pc)` events (in `Full` mode), scheduling decisions, console output, and
//! — via [`crate::vm::Vm::state_digest`] — the final reachable program
//! state. Replay is *accurate* iff record and replay fingerprints match.
//!
//! Instrumentation-internal execution (DejaVu helper frames) is excluded,
//! mirroring the fact that DejaVu "cannot replay its own instrumentation,
//! which behaves differently by definition" (§2.4).
//!
//! The per-instruction chain is affine over Z/2⁶⁴ (DESIGN §4):
//! `h ← h·M + T(tid) + P(method, pc)` with `M` odd, `T(tid) = (tid+1)·K`
//! for an odd `K`, and `P` a bijective finalizer. Any run of steps on one
//! thread therefore composes to one [`StepFold`], which is how tier 2
//! retires whole closed-form iterations under `Full`. The rare events
//! (switches, output, tagged events) and the read in
//! [`Fingerprint::digest`] keep the non-linear avalanche.

/// How much of the execution to hash. `VmConfig::default()` picks `Full`;
/// there is no other default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintMode {
    /// Hash scheduling decisions and output only.
    Coarse,
    /// Hash every executed instruction's (tid, method, pc). The strongest
    /// accuracy check, and the default.
    Full,
}

/// Rolling execution hash.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    mode: FingerprintMode,
    h: u64,
    /// Number of hashed instruction events.
    pub steps: u64,
    /// Number of hashed thread switches.
    pub switches: u64,
}

/// The splitmix64 finalizer: a bijection on `u64` (each xor-shift and odd
/// multiply inverts).
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    // splitmix64-style avalanche over (h ^ rotated v).
    avalanche(
        h ^ v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2),
    )
}

/// The step chain's multiplier `M`: odd, and ≡ 5 (mod 8), so its
/// multiplicative order mod 2⁶⁴ is the maximal 2⁶² (Knuth's MMIX LCG
/// multiplier).
const M: u64 = 0x5851_F42D_4C95_7F2D;
/// The thread term's odd multiplier: `T(tid) = (tid+1)·K`.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Fingerprint {
    pub fn new(mode: FingerprintMode) -> Self {
        Self {
            mode,
            h: 0x5DEC_AF15_0DD5_EED5,
            steps: 0,
            switches: 0,
        }
    }

    pub fn mode(&self) -> FingerprintMode {
        self.mode
    }

    /// The per-instruction rolling state `(h, steps)`, held in locals by
    /// the dispatch loops' cursor. Pair with
    /// [`Fingerprint::set_step_state`]; advance `h` with
    /// [`Fingerprint::mix_step`] and count each mixed instruction in
    /// `steps`. Only `Full` mode advances it — in `Coarse` the cached
    /// state must be written back unchanged.
    #[inline]
    pub fn step_state(&self) -> (u64, u64) {
        (self.h, self.steps)
    }

    /// Write back rolling state taken from [`Fingerprint::step_state`].
    #[inline]
    pub fn set_step_state(&mut self, h: u64, steps: u64) {
        self.h = h;
        self.steps = steps;
    }

    /// One executed instruction's advance of the chain:
    /// `h·M + T(tid) + P(method, pc)` over Z/2⁶⁴. Affine in `h`, so a run of
    /// them composes to a [`StepFold`].
    #[inline]
    pub fn mix_step(h: u64, tid: u32, method: u32, pc: u32) -> u64 {
        h.wrapping_mul(M)
            .wrapping_add((tid as u64 + 1).wrapping_mul(K))
            .wrapping_add(avalanche(((method as u64) << 32) | pc as u64))
    }

    /// A thread switch to `to` after `yp` yield points on the switching
    /// thread.
    #[inline]
    pub fn thread_switch(&mut self, to: u32, yp: u64) {
        self.switches += 1;
        self.h = mix(self.h, 0xD15B_A7C4 ^ ((to as u64) << 32) ^ yp);
    }

    /// Console output bytes.
    pub fn output(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.h = mix(self.h, u64::from_le_bytes(w) ^ 0x0007_fa11);
        }
    }

    /// An arbitrary tagged event (used for VM errors, halts, spawns).
    pub fn event(&mut self, tag: u64, a: u64, b: u64) {
        self.h = mix(mix(self.h, tag), a ^ b.rotate_left(32));
    }

    /// Current digest. The two counts mix separately, so neither can alias
    /// into the other.
    pub fn digest(&self) -> u64 {
        mix(mix(self.h, self.steps), self.switches)
    }
}

/// A run of [`Fingerprint::mix_step`]s on one thread, composed into the one
/// affine map `h ↦ a·h + (tid+1)·s + p`. (`T(tid)·Σ Mⁱ` is
/// `(tid+1)·K·Σ Mⁱ`, so `s` carries the `K`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepFold {
    a: u64,
    s: u64,
    p: u64,
}

impl StepFold {
    /// Read the map off the chain itself: `chain(h, tid)` must step a fixed
    /// `(method, pc)` sequence through [`Fingerprint::mix_step`]. Three
    /// evaluations pin the three coefficients, so the fold is exact.
    pub fn of(chain: impl Fn(u64, u32) -> u64) -> StepFold {
        let at0 = chain(0, 0); // s + p
        let s = chain(0, 1).wrapping_sub(at0); // (2s + p) - (s + p)
        StepFold {
            a: chain(1, 0).wrapping_sub(at0),
            s,
            p: at0.wrapping_sub(s),
        }
    }

    /// The composed run, applied `n` times to `h` on thread `tid`: the
    /// affine map `h ↦ a·h + c` raised to the `n`th power by squaring, so
    /// `O(log n)` multiply-adds, exact mod 2⁶⁴ like the chain itself.
    #[inline]
    pub fn apply(self, h: u64, tid: u32, mut n: u64) -> u64 {
        let (mut a, mut c) = (
            self.a,
            (tid as u64 + 1).wrapping_mul(self.s).wrapping_add(self.p),
        );
        let mut h = h;
        while n > 0 {
            if n & 1 == 1 {
                h = a.wrapping_mul(h).wrapping_add(c);
            }
            c = a.wrapping_mul(c).wrapping_add(c);
            a = a.wrapping_mul(a);
            n >>= 1;
        }
        h
    }
}

/// Standalone mixer for building auxiliary digests (heap/state hashing).
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xD16E_57A7_E000_0001)
    }
}

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&mut self, v: u64) -> &mut Self {
        self.0 = mix(self.0, v);
        self
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// A `Full` fingerprint over `(tid, method, pc)` steps, advanced the
    /// way a dispatch cursor advances it.
    fn full(steps: impl IntoIterator<Item = (u32, u32, u32)>) -> Fingerprint {
        let mut f = Fingerprint::new(FingerprintMode::Full);
        let (mut h, mut n) = f.step_state();
        for (tid, method, pc) in steps {
            h = Fingerprint::mix_step(h, tid, method, pc);
            n += 1;
        }
        f.set_step_state(h, n);
        f
    }

    /// The chain state and the digest: the first is what DESIGN §4's
    /// detection argument is about, the second what a run reports.
    fn read(f: &Fingerprint) -> (u64, u64) {
        (f.step_state().0, f.digest())
    }

    #[test]
    fn identical_sequences_hash_identically() {
        let mut a = full((0..100).map(|i| (1, 2, i)));
        let mut b = full((0..100).map(|i| (1, 2, i)));
        a.thread_switch(2, 50);
        b.thread_switch(2, 50);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_order_hashes_differently() {
        let a = full([(1, 2, 3), (1, 2, 4)]);
        let b = full([(1, 2, 4), (1, 2, 3)]);
        assert_ne!(a.digest(), b.digest());
    }

    /// Drawn equal-length step sequences that differ in exactly one
    /// position — its tid or its `(method, pc)` — never collide: the
    /// difference reaches the chain state as an odd power of `M` times a
    /// nonzero `T` or `P` difference. Neither do transpositions of two
    /// distinct pcs at distance 2ᵏ, k ≤ 20, whose difference carries only
    /// k + 2 factors of two (`M ≡ 5 mod 8`).
    #[test]
    fn one_position_changes_and_power_of_two_transpositions_are_detected() {
        let mut rng = SplitMix64::new(0xF1_4D);
        let mut draw = |n: u64| rng.next_u64() % n;
        for case in 0..2_000 {
            let len = 1 + draw(48) as usize;
            let seq: Vec<(u32, u32, u32)> = (0..len)
                .map(|_| (draw(3) as u32, draw(3) as u32, draw(40) as u32))
                .collect();
            let mut other = seq.clone();
            let at = &mut other[draw(len as u64) as usize];
            let flip = 1 + draw(u32::MAX as u64) as u32; // nonzero
            match draw(3) {
                0 => at.0 ^= flip,
                1 => at.1 ^= flip,
                _ => at.2 ^= flip,
            }
            let (a, b) = (read(&full(seq)), read(&full(other)));
            assert!(
                a.0 != b.0 && a.1 != b.1,
                "case {case}: one-position change collided"
            );
        }
        for k in 0..=20u32 {
            for case in 0..3 {
                let d = 1usize << k;
                let (i, tail) = (draw(5) as usize, draw(5) as usize);
                let mut pcs: Vec<u32> = (0..i + d + 1 + tail).map(|_| draw(6) as u32).collect();
                if pcs[i] == pcs[i + d] {
                    pcs[i + d] = (pcs[i] + 1) % 6;
                }
                let a = read(&full(pcs.iter().map(|&pc| (0, 1, pc))));
                pcs.swap(i, i + d);
                let b = read(&full(pcs.iter().map(|&pc| (0, 1, pc))));
                assert!(
                    a.0 != b.0 && a.1 != b.1,
                    "k {k} case {case}: transposition collided"
                );
            }
        }
    }

    /// What the chain does *not* detect (DESIGN §4): like every polynomial
    /// hash mod 2⁶⁴, it has crafted collisions. A Thue–Morse word over two
    /// pcs and its complement differ by `(P(x) − P(y))·Π (1 − M^(2^j))`,
    /// whose ten factors carry ≥ 64 twos, so at length 2¹⁰ they collide.
    #[test]
    fn thue_morse_words_over_two_pcs_collide_at_length_1024() {
        let word = |flip: u32| (0..1024u32).map(move |i| (0, 1, (i.count_ones() + flip) % 2));
        assert_eq!(full(word(0)).digest(), full(word(1)).digest());
        let half = |flip: u32| (0..512u32).map(move |i| (0, 1, (i.count_ones() + flip) % 2));
        assert_ne!(full(half(0)).digest(), full(half(1)).digest());
    }

    /// A run of 2³² steps and a run with one switch used to read the same
    /// count word, so equal chain states gave equal digests.
    #[test]
    fn step_and_switch_counts_do_not_alias() {
        let mut a = full([]);
        let mut b = full([]);
        let h = a.step_state().0;
        a.set_step_state(h, 1 << 32);
        b.switches = 1;
        assert_ne!(a.digest(), b.digest());
    }

    /// The squared-up fold equals `n` single applications of the map.
    #[test]
    fn step_fold_apply_equals_the_naive_loop() {
        let mut rng = SplitMix64::new(0x5F01D);
        for _ in 0..16 {
            let f = StepFold {
                a: rng.next_u64(),
                s: rng.next_u64(),
                p: rng.next_u64(),
            };
            let (h, tid) = (rng.next_u64(), rng.next_u64() as u32);
            let add = (tid as u64 + 1).wrapping_mul(f.s).wrapping_add(f.p);
            for n in [0, 1, 2, 3, 63, 64, 65, (1 << 20) + 7] {
                let naive = (0..n).fold(h, |h, _| f.a.wrapping_mul(h).wrapping_add(add));
                assert_eq!(f.apply(h, tid, n), naive, "{f:?} h {h} tid {tid} n {n}");
            }
        }
    }

    #[test]
    fn switch_target_matters() {
        let mut a = Fingerprint::new(FingerprintMode::Coarse);
        let mut b = Fingerprint::new(FingerprintMode::Coarse);
        a.thread_switch(1, 10);
        b.thread_switch(2, 10);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn output_bytes_hash() {
        let mut a = Fingerprint::new(FingerprintMode::Coarse);
        let mut b = Fingerprint::new(FingerprintMode::Coarse);
        a.output(b"8\n");
        b.output(b"0\n");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_mixer_order_sensitive() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.add(1).add(2);
        b.add(2).add(1);
        assert_ne!(a.value(), b.value());
    }
}
