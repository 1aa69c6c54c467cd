//! The interner's table is process-global, so a count taken while other
//! tests intern new names is not exact. This binary holds a single test,
//! which leaves nothing else in the process to intern concurrently.

use b2b_document::{intern, interned_count};

#[test]
fn repeat_interning_does_not_grow_table() {
    intern("stable_key");
    let before = interned_count();
    for _ in 0..64 {
        intern("stable_key");
    }
    assert_eq!(interned_count(), before);
}
