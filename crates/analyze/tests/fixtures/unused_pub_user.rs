//! Fixture: a caller in another file.

pub use crate::fixture::{Reexported, Shape as _};
use crate::fixture::LIMIT;

fn call() -> usize {
    used_by_caller();
    let _: Alias = 0;
    // only_used_here() in a comment is not a use, nor is "Mode" in a string.
    let _ = "Mode";
    LIMIT
}

#[cfg(test)]
mod tests {
    fn t() {
        const_helper();
        unsafe { raw_helper() };
    }
}
