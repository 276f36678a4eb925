//! The advisory `dplint --unused-pub` report against seeded fixtures:
//! exact `path:line:col name` lines for public items that no other file
//! uses outside test code and `pub use` re-exports.

use dp_analyze::unused_pub;
use dp_analyze::SourceFile;

#[test]
fn reports_items_used_nowhere_outside_their_own_file() {
    let defs =
        [SourceFile::parse("crates/x/src/fixture.rs", include_str!("fixtures/unused_pub.rs"))];
    let refs = [SourceFile::parse("examples/user.rs", include_str!("fixtures/unused_pub_user.rs"))];
    let lines: Vec<String> =
        unused_pub::unused(&defs, &refs).iter().map(ToString::to_string).collect();
    assert_eq!(
        lines,
        [
            "crates/x/src/fixture.rs:4:8 only_used_here",
            "crates/x/src/fixture.rs:6:14 const_helper",
            "crates/x/src/fixture.rs:8:12 Reexported",
            "crates/x/src/fixture.rs:9:15 raw_helper",
            "crates/x/src/fixture.rs:10:19 c_entry",
            "crates/x/src/fixture.rs:11:11 Shape",
            "crates/x/src/fixture.rs:13:10 Mode",
        ],
        "calls, private imports and type positions elsewhere are uses; a use in \
         the item's own file, in test code, in a `pub use`, in a comment or in a \
         string is not; `pub(crate)` and test-only items are not public"
    );
}

#[test]
fn live_report_runs_on_the_workspace() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    let items = unused_pub::report(root).expect("workspace loads");
    // The scheduler's public entry points are used by the CLI and the
    // benchmark, so they never show up.
    for name in ["serve_resilient", "query_batch_parallel", "serve_session"] {
        assert!(items.iter().all(|item| item.name != name), "{name} reported as unused");
    }
}
