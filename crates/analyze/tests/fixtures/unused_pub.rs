//! Fixture: public items of one file, some used elsewhere, some not.

pub fn used_by_caller() {}
pub fn only_used_here() {}
pub(crate) fn crate_visible() {}
pub const fn const_helper() -> u32 { 1 }
pub const LIMIT: usize = 3;
pub struct Reexported;
pub unsafe fn raw_helper() {}
pub extern "C" fn c_entry() {}
pub trait Shape {}
pub type Alias = u32;
pub enum Mode { A }

fn local() {
    only_used_here();
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
