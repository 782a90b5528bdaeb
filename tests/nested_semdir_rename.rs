//! Scope consistency across a rename (§2.3): a semantic directory nested
//! in another evaluates against its parent's links, and those links name
//! their targets by inode, so renaming a linked document's directory may
//! not shrink the child's result — neither straight after the rename nor
//! after the `ssync` passes that repair the parent's stored link paths.

use std::collections::BTreeSet;

use hac::prelude::*;
use hac::vfs::FileId;

fn p(s: &str) -> VPath {
    VPath::parse(s).expect("static path")
}

fn local_targets(fs: &HacFs, dir: &str) -> BTreeSet<FileId> {
    fs.list_links(&p(dir))
        .unwrap()
        .into_iter()
        .filter_map(|l| match l.target {
            LinkTarget::Local(fid) => Some(fid),
            LinkTarget::Remote(..) => None,
        })
        .collect()
}

#[test]
fn a_nested_semdir_keeps_its_links_when_a_parent_link_target_is_renamed() {
    let fs = HacFs::new();
    let mut docs = BTreeSet::new();
    for d in ["/db/d0", "/db/d1"] {
        fs.mkdir_p(&p(d)).unwrap();
        docs.insert(fs.save(&p(&format!("{d}/doc.txt")), b"alpha beta").unwrap());
    }
    fs.ssync(&p("/")).unwrap();
    fs.mkdir_p(&p("/q")).unwrap();
    fs.smkdir(&p("/q/m"), "alpha").unwrap();
    fs.smkdir(&p("/q/m/n"), "beta").unwrap();
    assert_eq!(local_targets(&fs, "/q/m/n"), docs);

    fs.rename(&p("/db/d1"), &p("/db/d1x")).unwrap();
    assert_eq!(
        local_targets(&fs, "/q/m/n"),
        docs,
        "the rename's cascade must see the parent's links by inode"
    );

    fs.ssync(&p("/")).unwrap();
    fs.ssync(&p("/")).unwrap();
    assert_eq!(local_targets(&fs, "/q/m"), docs);
    assert_eq!(
        local_targets(&fs, "/q/m/n"),
        docs,
        "/q/m/n must link both documents after the link repair"
    );
}
