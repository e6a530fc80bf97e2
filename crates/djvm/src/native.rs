//! JNI-like native interface (paper §2.5).
//!
//! Native code can affect the guest only through **return values** and
//! **callbacks** — Jalapeño's JNI "does not allow native code to obtain
//! direct pointers into the Java heap", and neither does ours: natives see
//! integer arguments and produce an integer result plus an optional list of
//! callback invocations (guest methods to run with integer arguments).
//!
//! During record, DejaVu captures the result and the callback parameters;
//! during replay, the native is **not executed** — the recorded outcome is
//! regenerated at the corresponding execution point.

use crate::bytecode::{MethodId, NativeId};

/// A callback the native asks the VM to perform: run `method` with the
/// given integer arguments on the current thread (result discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallbackReq {
    pub method: MethodId,
    pub args: Vec<i64>,
}

/// Everything a native call did that the guest can observe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NativeOutcome {
    /// Return value (ignored if the native is declared void).
    pub ret: i64,
    /// Callbacks to perform, in order, before the caller continues.
    pub callbacks: Vec<CallbackReq>,
}

impl NativeOutcome {
    pub fn value(ret: i64) -> Self {
        Self {
            ret,
            callbacks: Vec::new(),
        }
    }
}

/// Context handed to a native implementation.
pub struct NativeCtx<'a> {
    pub args: &'a [i64],
    /// The wall-clock value at call time (natives often depend on time).
    pub now_millis: i64,
}

/// A registered native implementation. `FnMut` so natives may carry their
/// own (non-deterministic) state, e.g. a seeded RNG or an input stream.
pub type NativeFn = Box<dyn FnMut(&NativeCtx) -> NativeOutcome + Send>;

/// Registry mapping declared natives to host implementations.
#[derive(Default)]
pub struct NativeRegistry {
    fns: Vec<Option<NativeFn>>,
}

impl NativeRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register(&mut self, id: NativeId, f: NativeFn) {
        let i = id as usize;
        if i >= self.fns.len() {
            self.fns.resize_with(i + 1, || None);
        }
        self.fns[i] = Some(f);
    }

    /// Execute a native. Panics if unregistered — programs declare their
    /// natives, so an unregistered one is a harness bug, not a guest error.
    pub fn call(&mut self, id: NativeId, ctx: &NativeCtx) -> NativeOutcome {
        let f = self
            .fns
            .get_mut(id as usize)
            .and_then(|o| o.as_mut())
            .unwrap_or_else(|| panic!("native {id} not registered"));
        f(ctx)
    }
}

impl std::fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeRegistry({} slots)", self.fns.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut r = NativeRegistry::new();
        r.register(0, Box::new(|ctx| NativeOutcome::value(ctx.args[0] * 2)));
        let out = r.call(
            0,
            &NativeCtx {
                args: &[21],
                now_millis: 0,
            },
        );
        assert_eq!(out.ret, 42);
        assert!(out.callbacks.is_empty());
    }

    #[test]
    fn stateful_native() {
        let mut r = NativeRegistry::new();
        let mut counter = 0i64;
        r.register(
            0,
            Box::new(move |_| {
                counter += 1;
                NativeOutcome::value(counter)
            }),
        );
        let ctx = NativeCtx {
            args: &[],
            now_millis: 0,
        };
        assert_eq!(r.call(0, &ctx).ret, 1);
        assert_eq!(r.call(0, &ctx).ret, 2);
    }

    #[test]
    fn callbacks_carried() {
        let mut r = NativeRegistry::new();
        r.register(
            3,
            Box::new(|_| NativeOutcome {
                ret: 0,
                callbacks: vec![CallbackReq {
                    method: 7,
                    args: vec![1, 2],
                }],
            }),
        );
        let out = r.call(
            3,
            &NativeCtx {
                args: &[],
                now_millis: 0,
            },
        );
        assert_eq!(out.callbacks.len(), 1);
        assert_eq!(out.callbacks[0].method, 7);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_panics() {
        let mut r = NativeRegistry::new();
        r.call(
            5,
            &NativeCtx {
                args: &[],
                now_millis: 0,
            },
        );
    }
}
