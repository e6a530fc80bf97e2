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

/// How much of the execution to hash. `VmConfig::default()` picks `Full`;
/// there is no other default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintMode {
    /// Hash scheduling decisions and output only.
    Coarse,
    /// Hash every executed instruction's (tid, method, pc). The strongest
    /// accuracy check; used by the test suite.
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

#[inline]
fn mix(mut h: u64, v: u64) -> u64 {
    // splitmix64-style avalanche over (h ^ rotated v).
    h ^= v
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h << 6)
        .wrapping_add(h >> 2);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

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

    /// One executed instruction (Full mode only).
    #[inline]
    pub fn step(&mut self, tid: u32, method: u32, pc: u32) {
        if self.mode == FingerprintMode::Full {
            self.steps += 1;
            self.h = Self::mix_step(self.h, tid, method, pc);
        }
    }

    /// The per-instruction rolling state, for a cached-cursor dispatch
    /// loop that holds it in locals (the quickened interpreter). Pair
    /// with [`Fingerprint::set_step_state`]; advance the hash with
    /// [`Fingerprint::mix_step`]. Only meaningful in `Full` mode — in
    /// other modes [`Fingerprint::step`] is a no-op and the cached state
    /// must be written back unchanged.
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

    /// The pure hash advance of one [`Fingerprint::step`], usable on a
    /// cached `h` without touching `self`.
    #[inline]
    pub fn mix_step(h: u64, tid: u32, method: u32, pc: u32) -> u64 {
        mix(
            h,
            ((tid as u64) << 48) | ((method as u64) << 24) | pc as u64,
        )
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

    /// Current digest.
    pub fn digest(&self) -> u64 {
        mix(self.h, self.steps ^ (self.switches << 32))
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

    #[test]
    fn identical_sequences_hash_identically() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        for i in 0..100 {
            a.step(1, 2, i);
            b.step(1, 2, i);
        }
        a.thread_switch(2, 50);
        b.thread_switch(2, 50);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_order_hashes_differently() {
        let mut a = Fingerprint::new(FingerprintMode::Full);
        let mut b = Fingerprint::new(FingerprintMode::Full);
        a.step(1, 2, 3);
        a.step(1, 2, 4);
        b.step(1, 2, 4);
        b.step(1, 2, 3);
        assert_ne!(a.digest(), b.digest());
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
