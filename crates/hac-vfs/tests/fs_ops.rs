//! Behavioural integration tests for the VFS public surface.

use std::sync::Arc;

use hac_vfs::{CreatePolicy, NodeKind, OpenMode, VPath, Vfs, VfsError};

fn p(s: &str) -> VPath {
    VPath::parse(s).unwrap()
}

#[test]
fn create_read_write_roundtrip() {
    let fs = Vfs::new();
    fs.mkdir(&p("/docs")).unwrap();
    fs.create(&p("/docs/a.txt")).unwrap();
    fs.write_file(&p("/docs/a.txt"), b"hello").unwrap();
    assert_eq!(&fs.read_file(&p("/docs/a.txt")).unwrap()[..], b"hello");
    fs.append(&p("/docs/a.txt"), b" world").unwrap();
    assert_eq!(
        &fs.read_file(&p("/docs/a.txt")).unwrap()[..],
        b"hello world"
    );
}

#[test]
fn create_in_missing_parent_fails() {
    let fs = Vfs::new();
    assert!(matches!(
        fs.create(&p("/nodir/x")),
        Err(VfsError::NotFound(_))
    ));
}

#[test]
fn duplicate_create_fails() {
    let fs = Vfs::new();
    fs.create(&p("/f")).unwrap();
    assert!(matches!(
        fs.create(&p("/f")),
        Err(VfsError::AlreadyExists(_))
    ));
    assert!(matches!(
        fs.mkdir(&p("/f")),
        Err(VfsError::AlreadyExists(_))
    ));
}

#[test]
fn mkdir_p_is_idempotent_and_checks_kinds() {
    let fs = Vfs::new();
    let a = fs.mkdir_p(&p("/x/y/z")).unwrap();
    let b = fs.mkdir_p(&p("/x/y/z")).unwrap();
    assert_eq!(a, b);
    fs.create(&p("/x/file")).unwrap();
    assert!(matches!(
        fs.mkdir_p(&p("/x/file/sub")),
        Err(VfsError::NotADirectory(_))
    ));
}

#[test]
fn symlinks_resolve_transitively() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/a/b")).unwrap();
    fs.save(&p("/a/b/t.txt"), b"target").unwrap();
    fs.symlink(&p("/l1"), &p("/a/b/t.txt")).unwrap();
    fs.symlink(&p("/l2"), &p("/l1")).unwrap();
    assert_eq!(&fs.read_file(&p("/l2")).unwrap()[..], b"target");
    // lstat sees the link; stat follows it.
    assert_eq!(fs.lstat(&p("/l2")).unwrap().kind, NodeKind::Symlink);
    assert_eq!(fs.stat(&p("/l2")).unwrap().kind, NodeKind::File);
    assert_eq!(fs.readlink(&p("/l2")).unwrap(), p("/l1"));
}

#[test]
fn symlink_into_directory_resolves_components() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/real/dir")).unwrap();
    fs.save(&p("/real/dir/f"), b"x").unwrap();
    fs.symlink(&p("/alias"), &p("/real/dir")).unwrap();
    assert_eq!(&fs.read_file(&p("/alias/f")).unwrap()[..], b"x");
    assert_eq!(fs.readdir(&p("/alias")).unwrap().len(), 1);
}

#[test]
fn symlink_cycle_detected() {
    let fs = Vfs::new();
    fs.symlink(&p("/a"), &p("/b")).unwrap();
    fs.symlink(&p("/b"), &p("/a")).unwrap();
    assert!(matches!(
        fs.read_file(&p("/a")),
        Err(VfsError::TooManyLinks(_))
    ));
}

#[test]
fn dangling_symlink_reports_not_found_on_follow() {
    let fs = Vfs::new();
    fs.symlink(&p("/ghost"), &p("/no/such/file")).unwrap();
    assert!(matches!(fs.stat(&p("/ghost")), Err(VfsError::NotFound(_))));
    // But lstat and readlink still work.
    assert!(fs.lstat(&p("/ghost")).unwrap().is_symlink());
    assert_eq!(fs.readlink(&p("/ghost")).unwrap(), p("/no/such/file"));
}

#[test]
fn unlink_and_rmdir_enforce_kinds() {
    let fs = Vfs::new();
    fs.mkdir(&p("/d")).unwrap();
    fs.create(&p("/d/f")).unwrap();
    assert!(matches!(
        fs.unlink(&p("/d")),
        Err(VfsError::IsADirectory(_))
    ));
    assert!(matches!(fs.rmdir(&p("/d")), Err(VfsError::NotEmpty(_))));
    fs.unlink(&p("/d/f")).unwrap();
    fs.rmdir(&p("/d")).unwrap();
    assert!(!fs.exists(&p("/d")));
}

#[test]
fn remove_recursive_clears_subtree() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/t/a/b")).unwrap();
    fs.save(&p("/t/a/f1"), b"1").unwrap();
    fs.save(&p("/t/a/b/f2"), b"2").unwrap();
    fs.symlink(&p("/t/l"), &p("/t/a/f1")).unwrap();
    let nodes_before = fs.node_count();
    assert!(nodes_before > 1);
    fs.remove_recursive(&p("/t")).unwrap();
    assert!(!fs.exists(&p("/t")));
    assert_eq!(fs.node_count(), 1); // only root
}

#[test]
fn rename_moves_files_and_updates_paths() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/src")).unwrap();
    fs.mkdir_p(&p("/dst")).unwrap();
    let id = fs.save(&p("/src/f"), b"data").unwrap();
    fs.rename(&p("/src/f"), &p("/dst/g")).unwrap();
    assert!(!fs.exists(&p("/src/f")));
    assert_eq!(&fs.read_file(&p("/dst/g")).unwrap()[..], b"data");
    assert_eq!(fs.path_of(id).unwrap(), p("/dst/g"));
}

#[test]
fn rename_directory_carries_subtree() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/proj/src")).unwrap();
    fs.save(&p("/proj/src/main.c"), b"int main;").unwrap();
    fs.rename(&p("/proj"), &p("/project")).unwrap();
    assert_eq!(
        &fs.read_file(&p("/project/src/main.c")).unwrap()[..],
        b"int main;"
    );
}

#[test]
fn rename_refuses_into_self_and_existing_dest() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/a/b")).unwrap();
    fs.mkdir(&p("/c")).unwrap();
    assert!(matches!(
        fs.rename(&p("/a"), &p("/a/b/a2")),
        Err(VfsError::IntoSelf(_))
    ));
    assert!(matches!(
        fs.rename(&p("/a"), &p("/c")),
        Err(VfsError::AlreadyExists(_))
    ));
    // Root is immutable.
    assert!(matches!(
        fs.rename(&p("/"), &p("/r")),
        Err(VfsError::RootImmutable)
    ));
}

#[test]
fn rename_into_self_through_symlink_detected() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/a/b")).unwrap();
    fs.symlink(&p("/alias"), &p("/a/b")).unwrap();
    // Destination parent resolves through the alias back under /a.
    assert!(matches!(
        fs.rename(&p("/a"), &p("/alias/inside")),
        Err(VfsError::IntoSelf(_))
    ));
}

#[test]
fn readdir_is_name_ordered() {
    let fs = Vfs::new();
    fs.mkdir(&p("/d")).unwrap();
    for name in ["zeta", "alpha", "mid"] {
        fs.create(&p(&format!("/d/{name}"))).unwrap();
    }
    let names: Vec<String> = fs
        .readdir(&p("/d"))
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["alpha", "mid", "zeta"]);
}

#[test]
fn descriptor_io_streams_bytes() {
    let fs = Vfs::new();
    let pid = fs.spawn_process();
    let fd = fs
        .open(
            pid,
            &p("/file.bin"),
            OpenMode::ReadWrite,
            CreatePolicy::CreateIfMissing,
        )
        .unwrap();
    fs.write_fd(pid, fd, b"abcdef").unwrap();
    fs.seek(pid, fd, 0).unwrap();
    assert_eq!(&fs.read_fd(pid, fd, 3).unwrap()[..], b"abc");
    assert_eq!(&fs.read_fd(pid, fd, 10).unwrap()[..], b"def");
    assert_eq!(&fs.read_fd(pid, fd, 10).unwrap()[..], b"");
    fs.close(pid, fd).unwrap();
    assert!(matches!(
        fs.read_fd(pid, fd, 1),
        Err(VfsError::BadDescriptor(_))
    ));
    fs.exit_process(pid).unwrap();
}

#[test]
fn descriptor_mode_enforced() {
    let fs = Vfs::new();
    fs.save(&p("/f"), b"data").unwrap();
    let pid = fs.spawn_process();
    let ro = fs
        .open(pid, &p("/f"), OpenMode::Read, CreatePolicy::MustExist)
        .unwrap();
    assert!(matches!(
        fs.write_fd(pid, ro, b"x"),
        Err(VfsError::BadMode(_))
    ));
    let wo = fs
        .open(pid, &p("/f"), OpenMode::Write, CreatePolicy::MustExist)
        .unwrap();
    assert!(matches!(fs.read_fd(pid, wo, 1), Err(VfsError::BadMode(_))));
}

#[test]
fn descriptor_survives_rename() {
    let fs = Vfs::new();
    fs.save(&p("/old"), b"payload").unwrap();
    let pid = fs.spawn_process();
    let fd = fs
        .open(pid, &p("/old"), OpenMode::Read, CreatePolicy::MustExist)
        .unwrap();
    fs.rename(&p("/old"), &p("/new")).unwrap();
    assert_eq!(&fs.read_fd(pid, fd, 7).unwrap()[..], b"payload");
}

#[test]
fn open_truncate_policy_clears_content() {
    let fs = Vfs::new();
    fs.save(&p("/f"), b"old content").unwrap();
    let pid = fs.spawn_process();
    fs.open(
        pid,
        &p("/f"),
        OpenMode::Write,
        CreatePolicy::CreateOrTruncate,
    )
    .unwrap();
    assert_eq!(fs.read_file(&p("/f")).unwrap().len(), 0);
}

#[test]
fn write_fd_zero_fills_gap_after_seek() {
    let fs = Vfs::new();
    let pid = fs.spawn_process();
    let fd = fs
        .open(
            pid,
            &p("/sparse"),
            OpenMode::ReadWrite,
            CreatePolicy::CreateIfMissing,
        )
        .unwrap();
    fs.seek(pid, fd, 4).unwrap();
    fs.write_fd(pid, fd, b"zz").unwrap();
    assert_eq!(
        &fs.read_file(&p("/sparse")).unwrap()[..],
        &[0, 0, 0, 0, b'z', b'z']
    );
}

#[test]
fn mounts_read_through_and_block_writes() {
    let host = Vfs::new();
    host.mkdir_p(&p("/mnt/remote")).unwrap();
    let guest = Arc::new(Vfs::new());
    guest.mkdir(&p("/shared")).unwrap();
    guest.save(&p("/shared/doc.txt"), b"remote doc").unwrap();
    host.mount(&p("/mnt/remote"), Arc::clone(&guest)).unwrap();

    // Reads traverse into the guest namespace.
    assert_eq!(
        &host.read_file(&p("/mnt/remote/shared/doc.txt")).unwrap()[..],
        b"remote doc"
    );
    let entries = host.readdir(&p("/mnt/remote")).unwrap();
    assert_eq!(entries[0].name, "shared");
    assert!(host.stat(&p("/mnt/remote/shared")).unwrap().is_dir());

    // Mutations across the boundary are refused.
    assert!(matches!(
        host.create(&p("/mnt/remote/shared/new.txt")),
        Err(VfsError::CrossMount(_))
    ));
    assert!(matches!(
        host.rename(&p("/mnt/remote/shared/doc.txt"), &p("/stolen")),
        Err(VfsError::CrossMount(_))
    ));

    // The covered directory cannot be removed while mounted.
    assert!(matches!(
        host.rmdir(&p("/mnt/remote")),
        Err(VfsError::CrossMount(_))
    ));

    host.unmount(&p("/mnt/remote")).unwrap();
    assert!(host.readdir(&p("/mnt/remote")).unwrap().is_empty());
    assert!(matches!(
        host.unmount(&p("/mnt/remote")),
        Err(VfsError::NotFound(_))
    ));
}

#[test]
fn double_mount_rejected() {
    let host = Vfs::new();
    host.mkdir(&p("/m")).unwrap();
    host.mount(&p("/m"), Arc::new(Vfs::new())).unwrap();
    assert!(matches!(
        host.mount(&p("/m"), Arc::new(Vfs::new())),
        Err(VfsError::AlreadyExists(_))
    ));
}

#[test]
fn attr_cache_serves_repeat_stats() {
    let fs = Vfs::new();
    fs.save(&p("/f"), b"content").unwrap();
    let before = fs.attr_cache_stats();
    for _ in 0..10 {
        fs.stat(&p("/f")).unwrap();
    }
    let after = fs.attr_cache_stats();
    assert!(
        after.hits >= before.hits + 9,
        "repeat stats should hit the cache"
    );

    // A write invalidates; next stat sees the new size.
    fs.write_file(&p("/f"), b"longer content!").unwrap();
    assert_eq!(fs.stat(&p("/f")).unwrap().size, 15);
}

#[test]
fn counters_track_operations() {
    let fs = Vfs::new();
    fs.mkdir(&p("/d")).unwrap();
    fs.save(&p("/d/f"), b"1").unwrap();
    fs.read_file(&p("/d/f")).unwrap();
    fs.rename(&p("/d/f"), &p("/d/g")).unwrap();
    fs.unlink(&p("/d/g")).unwrap();
    let c = fs.counters();
    assert!(c.creates >= 2);
    assert!(c.writes >= 1);
    assert!(c.reads >= 1);
    assert_eq!(c.renames, 1);
    assert_eq!(c.removes, 1);
}

#[test]
fn path_of_round_trips_resolution() {
    let fs = Vfs::new();
    fs.mkdir_p(&p("/deep/nested/dir")).unwrap();
    let id = fs.save(&p("/deep/nested/dir/leaf.txt"), b"x").unwrap();
    assert_eq!(fs.path_of(id).unwrap(), p("/deep/nested/dir/leaf.txt"));
    assert_eq!(fs.resolve(&fs.path_of(id).unwrap()).unwrap(), id);
}

#[test]
fn symlink_batch_is_atomic() {
    let fs = Vfs::new();
    fs.mkdir(&p("/d")).unwrap();
    fs.create(&p("/d/taken")).unwrap();
    // A batch colliding with an existing entry creates nothing.
    let links = vec![
        ("a".to_string(), p("/t1")),
        ("taken".to_string(), p("/t2")),
        ("b".to_string(), p("/t3")),
    ];
    assert!(matches!(
        fs.symlink_batch(&p("/d"), &links),
        Err(VfsError::AlreadyExists(_))
    ));
    assert_eq!(fs.readdir(&p("/d")).unwrap().len(), 1);
    // Duplicate names inside the batch are also refused.
    let dup = vec![("x".to_string(), p("/t1")), ("x".to_string(), p("/t2"))];
    assert!(matches!(
        fs.symlink_batch(&p("/d"), &dup),
        Err(VfsError::AlreadyExists(_))
    ));
    // A malformed name anywhere in the batch is refused before any node
    // is allocated: no entry and no orphan in the node table.
    let before = fs.metadata_bytes();
    let bad = vec![("a".to_string(), p("/t1")), ("b/c".to_string(), p("/t2"))];
    assert!(matches!(
        fs.symlink_batch(&p("/d"), &bad),
        Err(VfsError::InvalidPath(_))
    ));
    assert_eq!(fs.readdir(&p("/d")).unwrap().len(), 1);
    assert_eq!(fs.metadata_bytes(), before);
    // A clean batch creates everything.
    let ok = vec![("a".to_string(), p("/t1")), ("b".to_string(), p("/t2"))];
    let ids = fs.symlink_batch(&p("/d"), &ok).unwrap();
    assert_eq!(ids.len(), 2);
    assert_eq!(fs.readlink(&p("/d/a")).unwrap(), p("/t1"));
    assert_eq!(fs.readlink(&p("/d/b")).unwrap(), p("/t2"));
    // Empty batch is a no-op.
    assert!(fs.symlink_batch(&p("/d"), &[]).unwrap().is_empty());
}

#[test]
fn descriptors_are_isolated_between_processes() {
    let fs = Vfs::new();
    fs.save(&p("/shared"), b"abc").unwrap();
    let p1 = fs.spawn_process();
    let p2 = fs.spawn_process();
    let fd1 = fs
        .open(p1, &p("/shared"), OpenMode::Read, CreatePolicy::MustExist)
        .unwrap();
    // The same small-integer descriptor in another process is unrelated.
    assert!(matches!(
        fs.read_fd(p2, fd1, 1),
        Err(VfsError::BadDescriptor(_))
    ));
    let fd2 = fs
        .open(p2, &p("/shared"), OpenMode::Read, CreatePolicy::MustExist)
        .unwrap();
    // Offsets advance independently.
    assert_eq!(&fs.read_fd(p1, fd1, 2).unwrap()[..], b"ab");
    assert_eq!(&fs.read_fd(p2, fd2, 2).unwrap()[..], b"ab");
    assert_eq!(&fs.read_fd(p1, fd1, 2).unwrap()[..], b"c");
    // Exiting one process does not disturb the other.
    fs.exit_process(p1).unwrap();
    assert_eq!(&fs.read_fd(p2, fd2, 2).unwrap()[..], b"c");
}

#[test]
fn symlink_chain_at_depth_limit() {
    let fs = Vfs::new();
    fs.save(&p("/target"), b"deep").unwrap();
    // A chain just under the limit resolves; one past it errors.
    let mut prev = p("/target");
    for i in 0..hac_vfs::fs::MAX_LINK_DEPTH {
        let link = p(&format!("/l{i}"));
        fs.symlink(&link, &prev).unwrap();
        prev = link;
    }
    assert_eq!(
        &fs.read_file(&p(&format!("/l{}", hac_vfs::fs::MAX_LINK_DEPTH - 1)))
            .unwrap()[..],
        b"deep"
    );
    let over = p("/over");
    fs.symlink(&over, &prev).unwrap();
    assert!(matches!(
        fs.read_file(&over),
        Err(VfsError::TooManyLinks(_))
    ));
}

#[test]
fn tiny_attr_cache_still_correct() {
    let fs = Vfs::with_cache_capacity(2);
    for i in 0..10 {
        fs.save(&p(&format!("/f{i}")), format!("{i}").as_bytes())
            .unwrap();
    }
    // Every stat is correct regardless of eviction pressure.
    for i in 0..10 {
        assert_eq!(fs.stat(&p(&format!("/f{i}"))).unwrap().size, 1);
    }
    assert!(fs.attr_cache_stats().evictions > 0);
}
