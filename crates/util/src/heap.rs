//! Process-wide heap policy for large, short-lived buffers.
//!
//! glibc serves a request of at least its mmap threshold (128 KiB at
//! start) from a mapping of its own, but it raises the threshold to the
//! size of every mapped block that is freed. Once the first multi-MB
//! trace stream is released, the next streams' columns therefore grow
//! on the brk heap. Memory freed there stays resident unless it lies at
//! the top of the heap, and whether it does depends on where small
//! long-lived allocations (cell summaries, their metric registries)
//! happened to land. A `fig1` pass's peak RSS moved by 5 MB with the
//! input seed for that reason alone.
//!
//! [`keep_large_blocks_mapped`] pins the threshold at glibc's default,
//! so every large buffer stays its own mapping and goes back to the
//! kernel when it is freed. Growing such a buffer is a `mremap`, not a
//! copy. On other targets it does nothing.

/// The threshold pinned on glibc: its own default.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const MMAP_THRESHOLD: i32 = 128 * 1024;

/// Keep blocks of 128 KiB or more out of the brk heap for the rest of
/// the process (glibc only; idempotent and cheap after the first call).
pub fn keep_large_blocks_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // `M_MMAP_THRESHOLD` from glibc's <malloc.h>.
            const M_MMAP_THRESHOLD: i32 = -3;
            unsafe extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // SAFETY: `mallopt` takes two ints and updates malloc's own
            // parameters under malloc's lock; setting this one also turns
            // off glibc's dynamic threshold adjustment.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
            }
        });
    }
}
