//! Stackful fibers: the simulation executor's ranks.
//!
//! Under a deterministic-simulation scheduler exactly one rank of a
//! universe runs at any instant, so the ranks need separate stacks but
//! not separate OS threads. A [`Fiber`] is a stack plus one saved stack
//! pointer; [`Fiber::resume`] switches the calling thread onto it and
//! [`suspend`] switches back. A switch is a plain function call into
//! `switch` below, which saves the callee-saved registers of the
//! System V x86_64 ABI (rbx, rbp, r12–r15) plus MXCSR and the x87
//! control word on the outgoing stack and restores them from the
//! incoming one — no kernel entry, no futex, no wakeup.
//!
//! Stacks are `mmap`'d with a `PROT_NONE` guard page below them, so an
//! overflow faults instead of corrupting a neighbour; they are mapped
//! `MAP_NORESERVE`, so only the pages a rank actually touches become
//! resident, and they live as long as their executor.
//!
//! Unwinding never crosses a switch: the executor catches every panic
//! at the fiber's entry. std's panic count is per OS thread, so a fiber
//! that suspended mid-unwind would leave the next fiber running
//! "inside" its panic; [`suspend`] refuses that loudly.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "ftmpi's simulation executor switches fibers with x86_64 Linux assembly; \
     no other target is supported"
);

use std::cell::Cell;
use std::ffi::c_void;
use std::ptr;

/// Usable stack per fiber. Virtual size only: the mapping is
/// `MAP_NORESERVE`, and a release-build ring rank touches a few tens
/// of KiB of it. The rest is headroom for debug builds and for the
/// panic hook, which formats (and may symbolize a backtrace) on the
/// panicking rank's stack.
const STACK_SIZE: usize = 1 << 20;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// One fiber stack: a guard page, then [`STACK_SIZE`] writable bytes.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: plain libc calls on a fresh private mapping we own.
        unsafe {
            let page = usize::try_from(sysconf(SC_PAGESIZE)).unwrap_or(4096);
            let len = STACK_SIZE + page;
            let base = mmap(
                ptr::null_mut(),
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(
                base as isize != -1,
                "mmap of a fiber stack failed: {}",
                std::io::Error::last_os_error()
            );
            let usable = base.cast::<u8>().add(page);
            let rc = mprotect(usable.cast(), STACK_SIZE, PROT_READ | PROT_WRITE);
            assert!(
                rc == 0,
                "mprotect of a fiber stack failed: {}",
                std::io::Error::last_os_error()
            );
            Stack { base: base.cast(), len }
        }
    }

    /// One past the highest usable byte (16-byte aligned: mappings are
    /// page aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of our own mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmapping the region `new` mapped; no fiber runs on it
        // (the executor owning it is being dropped, not running).
        unsafe {
            munmap(self.base.cast(), self.len);
        }
    }
}

/// The two saved stack pointers of a fiber and whether it has finished.
/// [`CURRENT`] points at the running fiber's copy.
struct Regs {
    /// Where the fiber resumes: its stack pointer at its last switch.
    fiber: *mut u8,
    /// Where [`suspend`] returns to: the dispatcher's stack pointer at
    /// the last [`Fiber::resume`].
    dispatcher: *mut u8,
    /// The entry function returned; the fiber must not be resumed
    /// until it is prepared again.
    done: bool,
}

thread_local! {
    /// The fiber running on this thread, or null on the dispatcher.
    static CURRENT: Cell<*mut Regs> = const { Cell::new(ptr::null_mut()) };
}

/// The entry-function type a fiber runs: `entry(arg, rank)`.
pub(crate) type Entry = unsafe extern "C" fn(*const u8, usize);

/// A stackful fiber. It must not move while it is suspended mid-run:
/// the executor keeps its fibers in a `Vec` it never resizes while a
/// run is in progress.
pub(crate) struct Fiber {
    stack: Stack,
    regs: Regs,
}

// SAFETY: `stack` owns its mapping outright (no other handle to it
// exists), and `regs` holds pointers into that mapping and into the
// stack of the thread that resumes the fiber; `resume` takes `&mut
// self` and is the only way to run the fiber, so moving it to another
// thread between runs moves everything it refers to with it.
unsafe impl Send for Fiber {}

impl Fiber {
    pub(crate) fn new() -> Fiber {
        Fiber {
            stack: Stack::new(),
            regs: Regs { fiber: ptr::null_mut(), dispatcher: ptr::null_mut(), done: true },
        }
    }

    /// Arm the fiber to run `entry(arg, rank)` from the top of its stack
    /// at the next [`Fiber::resume`]. A fiber that had not finished is
    /// abandoned: its frames are overwritten and never dropped.
    ///
    /// # Safety
    ///
    /// `entry` must be safe to call with `arg` and `rank`, and `arg`
    /// must stay valid for as long as the fiber can be resumed.
    pub(crate) unsafe fn prepare(&mut self, entry: Entry, arg: *const u8, rank: usize) {
        // The frame `switch` pops on first entry, from `sp` upwards:
        // MXCSR and the x87 control word, r15, r14, r13, r12, rbx, rbp,
        // then `fiber_start` as the return address. After the `ret`,
        // rsp = sp + 64, 16-byte aligned as a `call` requires; the two
        // zero words above are a null return address that ends
        // backtraces.
        let sp = self.stack.top().sub(80).cast::<u64>();
        const MXCSR_DEFAULT: u64 = 0x1F80;
        const FCW_DEFAULT: u64 = 0x037F;
        let frame: [u64; 10] = [
            MXCSR_DEFAULT | FCW_DEFAULT << 32,
            0,                     // r15
            rank as u64,           // r14: second argument
            entry as usize as u64, // r13: the entry function
            arg as u64,            // r12: first argument
            0,                     // rbx
            0,                     // rbp
            fiber_start as unsafe extern "sysv64" fn() as usize as u64,
            0,
            0,
        ];
        // SAFETY: the 80 bytes below the top of our own writable, 16-byte
        // aligned mapping, which no running code uses (the fiber is not
        // running: only `resume` runs it, and it needs `&mut self`).
        ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
        self.regs.fiber = sp.cast();
        self.regs.done = false;
    }

    /// Run the fiber until it suspends or its entry returns.
    pub(crate) fn resume(&mut self) {
        assert!(!self.regs.done, "resuming a fiber that has finished");
        let regs: *mut Regs = &mut self.regs;
        let outer = CURRENT.replace(regs);
        // SAFETY: `regs.fiber` is a stack pointer saved by `switch` (or
        // built by `prepare`) on this fiber's live stack.
        unsafe { switch(&mut (*regs).dispatcher, (*regs).fiber) };
        CURRENT.set(outer);
    }

    /// Whether the fiber's entry function has returned.
    pub(crate) fn is_done(&self) -> bool {
        self.regs.done
    }
}

/// Suspend the running simulation fiber and switch back to the
/// executor's dispatcher; returns when the dispatcher resumes this
/// fiber. A scheduler hook calls this from [`faultsim::SchedHook::step`]
/// when the token goes to another rank.
///
/// # Panics
///
/// Outside a simulation fiber, and while the calling fiber is
/// unwinding: std's panic count is per OS thread, so switching away
/// mid-unwind would run another rank inside this rank's panic.
pub fn suspend() {
    let regs = CURRENT.get();
    assert!(!regs.is_null(), "ftmpi::suspend called outside a simulation fiber");
    assert!(
        !std::thread::panicking(),
        "a simulation fiber cannot suspend while it unwinds: the panic count is per OS \
         thread, so the next fiber would run inside this panic"
    );
    // SAFETY: `regs` is the running fiber's, set by `Fiber::resume`,
    // whose stack frame (and saved stack pointer) is live below us.
    unsafe { switch(&mut (*regs).fiber, (*regs).dispatcher) };
}

/// Where a fiber goes when its entry function returns: mark it done and
/// switch to the dispatcher for good.
extern "C" fn fiber_finish() -> ! {
    let regs = CURRENT.get();
    // SAFETY: as in `suspend`; the dispatcher never resumes a done
    // fiber, so this switch does not return.
    unsafe {
        (*regs).done = true;
        switch(&mut (*regs).fiber, (*regs).dispatcher);
    }
    std::process::abort()
}

/// First code a prepared fiber runs: call `entry(r12, r14)` (held in
/// r13), then finish. The stack is 16-byte aligned here.
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_start() {
    std::arch::naked_asm!(
        "mov rdi, r12",
        "mov rsi, r14",
        "call r13",
        "call {finish}",
        "ud2",
        finish = sym fiber_finish,
    )
}

/// Save the callee-saved registers, MXCSR and the x87 control word on
/// the current stack, store the stack pointer in `*save`, switch to the
/// stack at `load`, and restore the same state from there.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, load: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe extern "C" fn count_to(arg: *const u8, steps: usize) {
        // SAFETY: the tests pass a `Cell<usize>` that outlives the fiber.
        let hits = &*(arg as *const Cell<usize>);
        for _ in 0..steps {
            hits.set(hits.get() + 1);
            suspend();
        }
    }

    /// A fiber runs to each suspend point and no further, finishes when
    /// its entry returns, and can be prepared again on the same stack.
    #[test]
    fn resume_runs_to_the_next_suspend() {
        let hits = Cell::new(0usize);
        let mut f = Fiber::new();
        for round in 0..3 {
            // SAFETY: `hits` outlives every resume of `f`.
            unsafe { f.prepare(count_to, &hits as *const Cell<usize> as *const u8, 2) };
            f.resume();
            assert_eq!(hits.get(), 2 * round + 1);
            assert!(!f.is_done(), "round {round}");
            f.resume();
            assert_eq!(hits.get(), 2 * round + 2);
            f.resume();
            assert!(f.is_done(), "entry returned");
        }
    }

    #[test]
    #[should_panic(expected = "outside a simulation fiber")]
    fn suspend_outside_a_fiber_panics() {
        suspend();
    }

    /// Suspends from a destructor, i.e. while the fiber unwinds.
    struct SuspendOnDrop;

    impl Drop for SuspendOnDrop {
        fn drop(&mut self) {
            suspend();
        }
    }

    unsafe extern "C" fn suspend_while_unwinding(_: *const u8, _: usize) {
        let _ = std::panic::catch_unwind(|| {
            let _guard = SuspendOnDrop;
            panic!("rank body panics");
        });
    }

    /// A suspend during an unwind must stop the process with the
    /// refusal message, not switch fibers inside the panic. The abort
    /// happens in a child: this test re-runs itself with `CHILD` set.
    #[test]
    fn suspend_while_unwinding_aborts_loudly() {
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "FIBER_SUSPEND_WHILE_UNWINDING_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let mut f = Fiber::new();
            // SAFETY: the entry ignores its argument.
            unsafe { f.prepare(suspend_while_unwinding, ptr::null(), 0) };
            f.resume();
            unreachable!("the suspend inside the unwind must abort");
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "fiber::tests::suspend_while_unwinding_aborts_loudly"])
            .args(["--nocapture", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.signal(), Some(6), "expected SIGABRT: {stderr}");
        assert!(stderr.contains("cannot suspend while it unwinds"), "{stderr}");
    }
}
