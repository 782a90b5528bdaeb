//! # hac-shell — `hacsh`
//!
//! An interactive shell over a [`HacFs`], exposing the paper's §4 command
//! suite: "well-known file system commands, such as `cd`, `ls`, `mkdir`,
//! `mv`, `rm` etc. … HAC also provides additional commands that manipulate
//! queries and semantic directories" — `smkdir`, `chquery`/`query`,
//! `sact`, `ssync`, plus the footnote API (`links`, `prohibited`, `pin`,
//! `forgive`).
//!
//! The [`Shell`] is a pure function from command lines to output strings,
//! so every command is unit-testable; `hacsh` (the binary) wraps it in a
//! stdin REPL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parse;

use std::fmt;
use std::sync::Arc;

use hac_core::{HacError, HacFs, LinkKind, LinkTarget, RemoteQuerySystem};
use hac_vfs::{NodeKind, VPath};

/// Shell-level errors (wrapping HAC errors with usage problems).
#[derive(Debug)]
pub enum ShellError {
    /// The command does not exist.
    UnknownCommand(String),
    /// Wrong number / shape of arguments.
    Usage(&'static str),
    /// The underlying file system refused.
    Hac(HacError),
}

impl fmt::Display for ShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShellError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `help`)")
            }
            ShellError::Usage(u) => write!(f, "usage: {u}"),
            ShellError::Hac(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShellError {}

impl From<HacError> for ShellError {
    fn from(e: HacError) -> Self {
        ShellError::Hac(e)
    }
}

impl From<hac_vfs::VfsError> for ShellError {
    fn from(e: hac_vfs::VfsError) -> Self {
        ShellError::Hac(HacError::Vfs(e))
    }
}

/// Flattens a federation error into the remote-error taxonomy the shell's
/// error type already carries.
fn fed_to_remote(e: hac_fed::FedError) -> hac_core::RemoteError {
    match e {
        hac_fed::FedError::Remote(r) => r,
        hac_fed::FedError::Store(s) => hac_core::RemoteError::Unavailable(s.to_string()),
    }
}

/// A shell session: a file system plus a working directory, and (after
/// `serve` / `obs-serve`) the network and observability servers exporting
/// it.
pub struct Shell {
    fs: Arc<HacFs>,
    cwd: VPath,
    server: Option<hac_net::HacServer>,
    obs_server: Option<hac_obs::ObsServer>,
    /// Shared with the `/statusz` closure so it sees serve/stop live.
    net_addr: Arc<std::sync::Mutex<Option<std::net::SocketAddr>>>,
    /// Shard servers started by `fed serve` (one per shard).
    fed_servers: Vec<hac_net::HacServer>,
    /// Coordinator behind the most recent `mount … fed://` (for
    /// `fed status`, `fleet stats`, and the obs server's fleet hooks —
    /// shared so a mount after `obs-serve` is picked up live).
    fed_remote: Arc<std::sync::Mutex<Option<Arc<hac_fed::FedRemote>>>>,
    /// Background sync loops for replicas attached with `fed follow`,
    /// joined on `fed stop`.
    followers: Vec<hac_fed::Follower>,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// Fresh shell over a fresh file system.
    pub fn new() -> Self {
        Self::over(Arc::new(HacFs::new()))
    }

    /// Shell over an existing file system (shared with other components).
    /// If no durable index store is attached yet, one is attached over the
    /// namespace's own reserved metadata area, so `ssync` passes commit
    /// crash-atomic segments and snapshots warm-start through recovery.
    pub fn over(fs: Arc<HacFs>) -> Self {
        if fs.store().is_none() {
            let backend = Arc::new(hac_core::VfsStore::new(Arc::clone(fs.vfs())));
            // Only fails on backend I/O; the in-VFS backend has none.
            let _ = fs.attach_store(backend);
        }
        Shell {
            fs,
            cwd: VPath::root(),
            server: None,
            obs_server: None,
            net_addr: Arc::new(std::sync::Mutex::new(None)),
            fed_servers: Vec::new(),
            fed_remote: Arc::new(std::sync::Mutex::new(None)),
            followers: Vec::new(),
        }
    }

    /// Address of the running `serve` instance, if any.
    pub fn server_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(hac_net::HacServer::local_addr)
    }

    /// Address of the running `obs-serve` instance, if any.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(hac_obs::ObsServer::local_addr)
    }

    /// The wrapped file system.
    pub fn fs(&self) -> &Arc<HacFs> {
        &self.fs
    }

    /// Current working directory.
    pub fn cwd(&self) -> &VPath {
        &self.cwd
    }

    /// Resolves a possibly-relative path argument against the cwd.
    pub fn resolve_arg(&self, arg: &str) -> Result<VPath, ShellError> {
        let combined = if arg.starts_with('/') {
            arg.to_string()
        } else if self.cwd.is_root() {
            format!("/{arg}")
        } else {
            format!("{}/{arg}", self.cwd)
        };
        Ok(VPath::parse(&combined).map_err(HacError::Vfs)?)
    }

    /// Executes one command line, returning its output text.
    ///
    /// # Errors
    ///
    /// [`ShellError`] for unknown commands, usage mistakes, and file-system
    /// refusals; the session stays usable after any error.
    pub fn exec(&mut self, line: &str) -> Result<String, ShellError> {
        let words = parse::split(line);
        let Some((cmd, args)) = words.split_first() else {
            return Ok(String::new());
        };
        // Operation root: every command mints (or continues) a trace, so
        // child spans in query eval / resync / remote fetches nest under it.
        let _root = hac_obs::span!("hacsh_command", cmd = cmd);
        match cmd.as_str() {
            "help" => Ok(HELP.to_string()),
            "pwd" => Ok(self.cwd.to_string()),
            "cd" => {
                let target = match args {
                    [] => VPath::root(),
                    [p] => self.resolve_arg(p)?,
                    _ => return Err(ShellError::Usage("cd [dir]")),
                };
                let attr = self.fs.stat(&target)?;
                if !attr.is_dir() {
                    return Err(ShellError::Hac(HacError::NotADirectory(target)));
                }
                self.cwd = target;
                Ok(String::new())
            }
            "ls" => {
                let (long, rest) = match args {
                    [flag, rest @ ..] if flag == "-l" => (true, rest),
                    rest => (false, rest),
                };
                let dir = match rest {
                    [] => self.cwd.clone(),
                    [p] => self.resolve_arg(p)?,
                    _ => return Err(ShellError::Usage("ls [-l] [dir]")),
                };
                let mut out = String::new();
                for entry in self.fs.readdir(&dir)? {
                    if long {
                        let child = dir.join(&entry.name).map_err(HacError::Vfs)?;
                        let attr = self.fs.vfs().lstat(&child)?;
                        let suffix = match entry.kind {
                            NodeKind::Symlink => {
                                format!(" -> {}", self.fs.readlink(&child)?)
                            }
                            _ => String::new(),
                        };
                        let sem = if entry.kind == NodeKind::Dir && self.fs.is_semantic(&child) {
                            " [semantic]"
                        } else {
                            ""
                        };
                        out.push_str(&format!(
                            "{} {:>8} {}{}{}\n",
                            attr.kind.tag(),
                            attr.size,
                            entry.name,
                            suffix,
                            sem
                        ));
                    } else {
                        out.push_str(&entry.name);
                        out.push('\n');
                    }
                }
                Ok(out)
            }
            "cat" => match args {
                [p] => {
                    let path = self.resolve_arg(p)?;
                    // Semdir links can point at remote documents that only
                    // exist behind a mount; fetch_link resolves both those
                    // and ordinary local symlink targets.
                    let data = if self.fs.vfs().lstat(&path)?.kind == NodeKind::Symlink {
                        self.fs.fetch_link(&path)?
                    } else {
                        self.fs.read_file(&path)?.to_vec()
                    };
                    Ok(String::from_utf8_lossy(&data).to_string())
                }
                _ => Err(ShellError::Usage("cat <file>")),
            },
            "mkdir" => match args {
                [flag, p] if flag == "-p" => {
                    self.fs.mkdir_p(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                [p] => {
                    self.fs.mkdir(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("mkdir [-p] <dir>")),
            },
            "write" => match args {
                [p, rest @ ..] => {
                    let text = rest.join(" ");
                    self.fs.save(&self.resolve_arg(p)?, text.as_bytes())?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("write <file> <text…>")),
            },
            "append" => match args {
                [p, rest @ ..] => {
                    let text = rest.join(" ");
                    self.fs.append(&self.resolve_arg(p)?, text.as_bytes())?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("append <file> <text…>")),
            },
            "rm" => match args {
                [flag, p] if flag == "-r" => {
                    self.fs.remove_recursive(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                [p] => {
                    self.fs.unlink(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("rm [-r] <path>")),
            },
            "rmdir" => match args {
                [p] => {
                    self.fs.rmdir(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("rmdir <dir>")),
            },
            "mv" => match args {
                [from, to] => {
                    self.fs
                        .rename(&self.resolve_arg(from)?, &self.resolve_arg(to)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("mv <from> <to>")),
            },
            "ln" => match args {
                [target, link] => {
                    self.fs
                        .symlink(&self.resolve_arg(link)?, &self.resolve_arg(target)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("ln <target> <link>")),
            },
            "readlink" => match args {
                [p] => Ok(format!("{}\n", self.fs.readlink(&self.resolve_arg(p)?)?)),
                _ => Err(ShellError::Usage("readlink <link>")),
            },
            // --- semantic commands -------------------------------------
            "smkdir" => match args {
                [p, query @ ..] if !query.is_empty() => {
                    let dir = self.resolve_arg(p)?;
                    self.fs.smkdir(&dir, &query.join(" "))?;
                    let n = self.fs.readdir(&dir)?.len();
                    Ok(format!("created semantic directory {dir} ({n} links)\n"))
                }
                _ => Err(ShellError::Usage("smkdir <dir> <query…>")),
            },
            "query" | "sreadq" => match args {
                [p] => Ok(format!("{}\n", self.fs.get_query(&self.resolve_arg(p)?)?)),
                _ => Err(ShellError::Usage("query <dir>")),
            },
            "chquery" | "schquery" => match args {
                [p, query @ ..] if !query.is_empty() => {
                    self.fs.set_query(&self.resolve_arg(p)?, &query.join(" "))?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("chquery <dir> <query…>")),
            },
            "sact" => match args {
                [p] => {
                    let lines = self.fs.sact(&self.resolve_arg(p)?)?;
                    Ok(lines.join("\n") + if lines.is_empty() { "" } else { "\n" })
                }
                _ => Err(ShellError::Usage("sact <link>")),
            },
            "ssync" => {
                let path = match args {
                    [] => VPath::root(),
                    [p] => self.resolve_arg(p)?,
                    _ => return Err(ShellError::Usage("ssync [path]")),
                };
                let r = self.fs.ssync(&path)?;
                Ok(format!(
                    "indexed +{} ~{} -{}; {} dirs re-evaluated; {} links repaired\n",
                    r.added, r.updated, r.removed, r.dirs_synced, r.links_repaired
                ))
            }
            "explain" => match args {
                query if !query.is_empty() => {
                    let (hits, stats) = self.fs.search_explained(&self.cwd, &query.join(" "))?;
                    Ok(format!(
                        "{} hits; {} candidates, {} verified, {} false positives\n",
                        hits.len(),
                        stats.candidates,
                        stats.verified,
                        stats.false_positives
                    ))
                }
                _ => Err(ShellError::Usage("explain <query…>")),
            },
            "find" => match args {
                query if !query.is_empty() => {
                    let hits = self.fs.search(&self.cwd, &query.join(" "))?;
                    let mut out = String::new();
                    for h in hits {
                        out.push_str(&h.to_string());
                        out.push('\n');
                    }
                    Ok(out)
                }
                _ => Err(ShellError::Usage("find <query…>")),
            },
            // --- the footnote API ---------------------------------------
            "links" => match args {
                [p] => {
                    let mut out = String::new();
                    for link in self.fs.list_links(&self.resolve_arg(p)?)? {
                        let kind = match link.kind {
                            LinkKind::Transient => "transient",
                            LinkKind::Permanent => "permanent",
                        };
                        out.push_str(&format!(
                            "{:<9} {} -> {}\n",
                            kind,
                            link.name,
                            target_str(&link.target)
                        ));
                    }
                    Ok(out)
                }
                _ => Err(ShellError::Usage("links <dir>")),
            },
            "prohibited" => match args {
                [p] => {
                    let mut out = String::new();
                    for (i, t) in self
                        .fs
                        .list_prohibited(&self.resolve_arg(p)?)?
                        .iter()
                        .enumerate()
                    {
                        out.push_str(&format!("[{i}] {}\n", target_str(t)));
                    }
                    Ok(out)
                }
                _ => Err(ShellError::Usage("prohibited <dir>")),
            },
            "forgive" => match args {
                [p, idx] => {
                    let dir = self.resolve_arg(p)?;
                    let list = self.fs.list_prohibited(&dir)?;
                    let i: usize = idx
                        .parse()
                        .map_err(|_| ShellError::Usage("forgive <dir> <index>"))?;
                    let Some(target) = list.get(i) else {
                        return Err(ShellError::Usage("forgive <dir> <index>"));
                    };
                    self.fs.forgive(&dir, target)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("forgive <dir> <index>")),
            },
            "pin" => match args {
                [p] => {
                    self.fs.make_permanent(&self.resolve_arg(p)?)?;
                    Ok(String::new())
                }
                _ => Err(ShellError::Usage("pin <link>")),
            },
            // --- the network layer ---------------------------------------
            "serve" => match args {
                [word] if word == "stop" => match self.server.take() {
                    Some(server) => {
                        let addr = server.local_addr();
                        server.shutdown();
                        *self.net_addr.lock().unwrap() = None;
                        Ok(format!("stopped server on {addr}\n"))
                    }
                    None => Ok("no server running\n".to_string()),
                },
                [word] if word == "status" => Ok(match &self.server {
                    Some(s) => {
                        let st = s.loop_stats();
                        format!(
                            "serving on {}\nloop: {} active conns \
                             ({} accepted, {} rejected), {} wakeups, \
                             {} inline / {} offloaded, {} workers\n",
                            s.local_addr(),
                            st.active_connections,
                            st.connections_total,
                            st.rejected_total,
                            st.wakeups_total,
                            st.inline_total,
                            st.offloaded_total,
                            st.workers,
                        )
                    }
                    None => "no server running\n".to_string(),
                }),
                [addr, ns, rest @ ..] if rest.len() <= 1 => {
                    if self.server.is_some() {
                        return Err(ShellError::Usage(
                            "serve: already running (use `serve stop` first)",
                        ));
                    }
                    let export = match rest {
                        [dir] => self.resolve_arg(dir)?,
                        _ => VPath::root(),
                    };
                    let backend =
                        Arc::new(hac_remote::RemoteHac::new(ns, Arc::clone(&self.fs), export));
                    let server = hac_net::HacServer::serve(
                        addr.as_str(),
                        vec![backend],
                        hac_net::ServerConfig::default(),
                    )
                    .map_err(|e| {
                        ShellError::Hac(HacError::Remote(hac_core::RemoteError::Unavailable(
                            e.to_string(),
                        )))
                    })?;
                    let bound = server.local_addr();
                    self.server = Some(server);
                    *self.net_addr.lock().unwrap() = Some(bound);
                    Ok(format!("serving {ns} on tcp://{bound}/{ns}\n"))
                }
                _ => Err(ShellError::Usage(
                    "serve <addr> <namespace> [dir] | serve stop | serve status",
                )),
            },
            "mount" => match args {
                [p, url] if url.starts_with("tcp://") => {
                    let dir = self.resolve_arg(p)?;
                    let remote =
                        hac_net::NetRemote::from_url(url, hac_net::ClientConfig::default())
                            .map_err(HacError::Remote)?;
                    let ns = remote.namespace();
                    self.fs.smount(&dir, Arc::new(remote))?;
                    Ok(format!("mounted {ns} at {dir}\n"))
                }
                [p, url] if url.starts_with("fed://") => {
                    // fed://host:port/logical — bootstrap the whole
                    // federation from any one shard's address: fetch the
                    // shard map, connect to every shard it names.
                    let dir = self.resolve_arg(p)?;
                    let rest = url.strip_prefix("fed://").unwrap_or_default();
                    let (addr, logical) = rest.split_once('/').ok_or(ShellError::Usage(
                        "mount <dir> fed://host:port/logical-namespace",
                    ))?;
                    let fed =
                        hac_fed::FedRemote::discover(logical, addr, hac_fed::FedConfig::default())
                            .map_err(|e| HacError::Remote(fed_to_remote(e)))?;
                    let shards = fed.map().shard_count();
                    let generation = fed.map().generation;
                    let fed = Arc::new(fed);
                    self.fs
                        .smount(&dir, Arc::clone(&fed) as Arc<dyn RemoteQuerySystem>)?;
                    *self.fed_remote.lock().unwrap() = Some(fed);
                    Ok(format!(
                        "mounted federated {logical} at {dir} \
                         ({shards} shards, placement generation {generation})\n"
                    ))
                }
                _ => Err(ShellError::Usage(
                    "mount <dir> tcp://host:port/ns | mount <dir> fed://host:port/logical",
                )),
            },
            "fed" => self.cmd_fed(args),
            "fleet" => self.cmd_fleet(args),
            "mounts" => match args {
                [p] => {
                    let namespaces = self.fs.mounts_at(&self.resolve_arg(p)?)?;
                    Ok(namespaces
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                        + "\n")
                }
                _ => Err(ShellError::Usage("mounts <dir>")),
            },
            // --- observability --------------------------------------------
            "obs-serve" => match args {
                [word] if word == "stop" => match self.obs_server.take() {
                    Some(mut server) => {
                        let addr = server.local_addr();
                        server.shutdown();
                        Ok(format!("stopped observability server on {addr}\n"))
                    }
                    None => Ok("no observability server running\n".to_string()),
                },
                [word] if word == "status" => Ok(match &self.obs_server {
                    Some(s) => format!("observability on http://{}/\n", s.local_addr()),
                    None => "no observability server running\n".to_string(),
                }),
                [addr] => {
                    if self.obs_server.is_some() {
                        return Err(ShellError::Usage(
                            "obs-serve: already running (use `obs-serve stop` first)",
                        ));
                    }
                    // Always fleet-aware: with no federation mounted the
                    // hooks return empty peer sets, so the fleet
                    // endpoints degenerate to the local view, and a
                    // later `mount … fed://` is picked up live.
                    let server = hac_obs::ObsServer::serve_fleet(
                        addr.as_str(),
                        self.status_fn(),
                        hac_obs::http::ObsServerConfig::default(),
                        self.fleet_hooks(),
                    )
                    .map_err(|e| {
                        ShellError::Hac(HacError::Remote(hac_core::RemoteError::Unavailable(
                            e.to_string(),
                        )))
                    })?;
                    let bound = server.local_addr();
                    self.obs_server = Some(server);
                    Ok(format!(
                        "observability on http://{bound}/ \
                         (/metrics /healthz /statusz /events /slow /trace/<id> \
                         /timeseries /alerts /fleet/metrics /fleet/health)\n"
                    ))
                }
                _ => Err(ShellError::Usage(
                    "obs-serve <addr> | obs-serve stop | obs-serve status",
                )),
            },
            "trace" => match args {
                [id] => {
                    let Some(tid) = hac_obs::trace::parse_id(id) else {
                        return Err(ShellError::Usage("trace <trace-id (hex)>"));
                    };
                    let mut events = hac_obs::recent_events();
                    events.extend(hac_obs::slow_ops());
                    let tree = hac_obs::assemble(&events, tid);
                    if tree.roots.is_empty() {
                        Ok(format!("trace {id}: no spans buffered\n"))
                    } else {
                        Ok(tree.render())
                    }
                }
                _ => Err(ShellError::Usage("trace <id>")),
            },
            "stats" => match args {
                [] => Ok(self.render_stats()),
                [flag] if flag == "--prom" => Ok(hac_obs::prometheus()),
                [flag] if flag == "--events" => {
                    let mut out = String::new();
                    out.push_str("recent events (oldest first):\n");
                    for e in hac_obs::recent_events() {
                        out.push_str(&format!("  {}\n", e.render()));
                    }
                    let slow = hac_obs::slow_ops();
                    if !slow.is_empty() {
                        out.push_str("slow ops:\n");
                        for e in slow {
                            out.push_str(&format!("  {}\n", e.render()));
                        }
                    }
                    Ok(out)
                }
                flags if flags.iter().all(|f| is_refresh_flag(f)) && !flags.is_empty() => {
                    let (interval, frames) = parse_refresh_flags(flags)
                        .ok_or(ShellError::Usage("stats [--watch[=secs]] [--frames=n]"))?;
                    let fs = Arc::clone(&self.fs);
                    Ok(watch_loop(interval, frames, move || render_stats_for(&fs)))
                }
                _ => Err(ShellError::Usage(
                    "stats [--prom|--events|--watch[=secs] [--frames=n]]",
                )),
            },
            "top" => {
                if !args.iter().all(|f| is_refresh_flag(f)) {
                    return Err(ShellError::Usage("top [--watch[=secs]] [--frames=n]"));
                }
                let cfg = self.fs.config();
                // `top` is often the first observability consumer in a
                // session: make sure objectives are installed and the
                // sampler is feeding the windows it renders.
                if hac_obs::slo::engine().is_empty() && !cfg.slos.is_empty() {
                    hac_obs::slo::install(&cfg.slos);
                }
                hac_obs::start_sampler(std::time::Duration::from_millis(cfg.sample_interval_ms));
                hac_obs::sample_if_due();
                match args {
                    [] => Ok(render_top(
                        &self.fs,
                        self.fed_remote.lock().unwrap().as_deref(),
                    )),
                    flags => {
                        let (interval, frames) = parse_refresh_flags(flags)
                            .ok_or(ShellError::Usage("top [--watch[=secs]] [--frames=n]"))?;
                        let fs = Arc::clone(&self.fs);
                        let fed = Arc::clone(&self.fed_remote);
                        Ok(watch_loop(interval, frames, move || {
                            hac_obs::sample_if_due();
                            render_top(&fs, fed.lock().unwrap().as_deref())
                        }))
                    }
                }
            }
            "slo" => match args {
                [word] if word == "status" => {
                    let cfg = self.fs.config();
                    if hac_obs::slo::engine().is_empty() && !cfg.slos.is_empty() {
                        hac_obs::slo::install(&cfg.slos);
                    }
                    hac_obs::sample_if_due();
                    Ok(render_slo_status())
                }
                _ => Err(ShellError::Usage("slo status")),
            },
            "store" => match args {
                [word] if word == "status" => {
                    let s = self.fs.store_status()?;
                    Ok(format!(
                        "manifest seq {}  base {}  segments {} ({} docs, {} B)\n\
                         wal {} B  objects {} ({} B)\n",
                        s.manifest_seq,
                        if s.base_present { "yes" } else { "no" },
                        s.segments_live,
                        s.segment_docs,
                        s.segment_bytes,
                        s.wal_bytes,
                        s.objects,
                        s.object_bytes,
                    ))
                }
                [word, rest @ ..] if word == "gc" && rest.len() <= 1 => {
                    let grace = match rest {
                        [g] => g
                            .parse::<u64>()
                            .map_err(|_| ShellError::Usage("store gc [grace]"))?,
                        _ => 0,
                    };
                    let report = self.fs.store_gc(grace)?;
                    Ok(format!(
                        "removed {} unreferenced objects ({} B)\n",
                        report.removed, report.bytes
                    ))
                }
                [word] if word == "checkpoint" => {
                    self.fs.persist_index()?;
                    let s = self.fs.store_status()?;
                    Ok(format!(
                        "checkpointed: manifest seq {}, {} segments live\n",
                        s.manifest_seq, s.segments_live
                    ))
                }
                _ => Err(ShellError::Usage(
                    "store status | store gc [grace] | store checkpoint",
                )),
            },
            other => Err(ShellError::UnknownCommand(other.to_string())),
        }
    }

    /// The plain `stats` snapshot (index shape plus every raw metric).
    fn render_stats(&self) -> String {
        render_stats_for(&self.fs)
    }

    /// The `fed` command family: shard the shell's export across N
    /// servers (`fed serve`), serve exactly one shard of a pre-agreed
    /// multi-process placement (`fed shard`), attach an in-process read
    /// replica to a mounted federation (`fed follow`), tear everything
    /// down (`fed stop`), and inspect both sides of a federation
    /// (`fed status`).
    fn cmd_fed(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "fed serve <addr> <ns> <shards> [dir] | \
                             fed shard <i> <ns> <addr0,addr1,…> [dir] | \
                             fed follow <shard> | fed stop | fed status";
        match args {
            [word] if word == "stop" => {
                let followers = self.followers.len();
                for follower in self.followers.drain(..) {
                    follower.stop();
                }
                if self.fed_servers.is_empty() {
                    return Ok(if followers > 0 {
                        format!("stopped {followers} replica followers\n")
                    } else {
                        "no federation serving\n".to_string()
                    });
                }
                let n = self.fed_servers.len();
                for server in self.fed_servers.drain(..) {
                    server.shutdown();
                }
                let mut out = format!("stopped {n} shard servers\n");
                if followers > 0 {
                    out.push_str(&format!("stopped {followers} replica followers\n"));
                }
                Ok(out)
            }
            [word] if word == "status" => {
                let mut out = String::new();
                if !self.fed_servers.is_empty() {
                    out.push_str(&format!("serving {} shards:\n", self.fed_servers.len()));
                    for server in &self.fed_servers {
                        out.push_str(&format!("  tcp://{}/\n", server.local_addr()));
                    }
                }
                if let Some(fed) = self.fed_remote.lock().unwrap().clone() {
                    let st = fed.status();
                    out.push_str(&format!(
                        "federation {} (generation {}, last result {}):\n",
                        st.logical,
                        st.generation,
                        if st.last_partial {
                            "PARTIAL"
                        } else {
                            "complete"
                        },
                    ));
                    for shard in &st.shards {
                        out.push_str(&format!(
                            "  {} @ {} [{}]: ok {}, errors {}, failovers {}, \
                             timeouts {}, replicas {}",
                            shard.ns,
                            shard.addr,
                            shard.health(),
                            shard.ok,
                            shard.errors,
                            shard.failovers,
                            shard.timeouts,
                            shard.replicas,
                        ));
                        if shard.consecutive_failures > 0 {
                            out.push_str(&format!(
                                " ({} consecutive failures)",
                                shard.consecutive_failures
                            ));
                        }
                        out.push('\n');
                    }
                }
                if out.is_empty() {
                    out.push_str("no federation running\n");
                }
                Ok(out)
            }
            [word, addr, ns, shards, rest @ ..] if word == "serve" && rest.len() <= 1 => {
                if !self.fed_servers.is_empty() {
                    return Err(ShellError::Usage(
                        "fed serve: already running (use `fed stop` first)",
                    ));
                }
                let count: usize = shards
                    .parse()
                    .ok()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or(ShellError::Usage("fed serve: <shards> must be 1..=64"))?;
                let export = match rest {
                    [dir] => self.resolve_arg(dir)?,
                    _ => VPath::root(),
                };
                let (host, port) = addr
                    .rsplit_once(':')
                    .ok_or(ShellError::Usage("fed serve: <addr> must be host:port"))?;
                let base_port: u16 = port
                    .parse()
                    .map_err(|_| ShellError::Usage("fed serve: bad port"))?;

                // Bootstrap in two generations: serve behind a map with
                // unknown addresses, then publish the real ones (placement
                // hashes paths, so the upgrade is placement-neutral).
                let provisional = Arc::new(hac_fed::ShardMap::new(ns, &vec![String::new(); count]));
                let mut servers: Vec<hac_net::HacServer> = Vec::new();
                let mut backends = Vec::new();
                let mut addrs = Vec::new();
                for shard in 0..count {
                    let inner = Arc::new(hac_remote::RemoteHac::new(
                        &provisional.shards[shard].ns,
                        Arc::clone(&self.fs),
                        export.clone(),
                    ));
                    let backend = Arc::new(hac_fed::ShardBackend::new(
                        inner,
                        Arc::clone(&provisional),
                        shard,
                    ));
                    let bind = if base_port == 0 {
                        format!("{host}:0")
                    } else {
                        format!("{host}:{}", base_port + shard as u16)
                    };
                    let server = hac_net::HacServer::serve(
                        &bind,
                        vec![backend.clone() as Arc<dyn RemoteQuerySystem>],
                        hac_net::ServerConfig::default(),
                    )
                    .map_err(|e| {
                        // Don't leave a half-started federation behind.
                        for started in servers.drain(..) {
                            started.shutdown();
                        }
                        ShellError::Hac(HacError::Remote(hac_core::RemoteError::Unavailable(
                            e.to_string(),
                        )))
                    })?;
                    addrs.push(server.local_addr().to_string());
                    servers.push(server);
                    backends.push(backend);
                }
                let mut map = hac_fed::ShardMap::new(ns, &addrs);
                map.generation = 2;
                let map = Arc::new(map);
                for backend in &backends {
                    backend.set_map(Arc::clone(&map));
                }

                let mut out = format!("serving {ns} across {count} shards:\n");
                for entry in &map.shards {
                    out.push_str(&format!(
                        "  {} on tcp://{}/{}\n",
                        entry.ns, entry.addr, entry.ns
                    ));
                }
                out.push_str(&format!(
                    "mount with: mount <dir> fed://{}/{ns}\n",
                    map.shards[0].addr
                ));
                self.fed_servers = servers;
                Ok(out)
            }
            // One shard of a multi-process federation: every process is
            // handed the same full peer list (so every copy of the map
            // agrees on placement) and binds only its own entry. The
            // map is final from the start — no provisional generation —
            // because the addresses were agreed before any bind.
            [word, idx, ns, addrs, rest @ ..] if word == "shard" && rest.len() <= 1 => {
                if !self.fed_servers.is_empty() {
                    return Err(ShellError::Usage(
                        "fed shard: already serving (use `fed stop` first)",
                    ));
                }
                let peers: Vec<String> = addrs.split(',').map(str::to_string).collect();
                let shard: usize = idx
                    .parse()
                    .ok()
                    .filter(|&i| i < peers.len())
                    .ok_or(ShellError::Usage("fed shard: <i> must index the peer list"))?;
                let export = match rest {
                    [dir] => self.resolve_arg(dir)?,
                    _ => VPath::root(),
                };
                let mut map = hac_fed::ShardMap::new(ns, &peers);
                map.generation = 2;
                let map = Arc::new(map);
                let inner = Arc::new(hac_remote::RemoteHac::new(
                    &map.shards[shard].ns,
                    Arc::clone(&self.fs),
                    export,
                ));
                let backend = Arc::new(hac_fed::ShardBackend::new(inner, Arc::clone(&map), shard));
                let server = hac_net::HacServer::serve(
                    &peers[shard],
                    vec![backend as Arc<dyn RemoteQuerySystem>],
                    hac_net::ServerConfig::default(),
                )
                .map_err(|e| {
                    ShellError::Hac(HacError::Remote(hac_core::RemoteError::Unavailable(
                        e.to_string(),
                    )))
                })?;
                let bound = server.local_addr();
                let shard_ns = map.shards[shard].ns.clone();
                self.fed_servers.push(server);
                Ok(format!(
                    "serving shard {shard} ({shard_ns}) of {ns} on tcp://{bound}/ \
                     ({} shards, placement generation {})\n\
                     mount with: mount <dir> fed://{}/{ns}\n",
                    map.shard_count(),
                    map.generation,
                    map.shards[0].addr,
                ))
            }
            // An in-process read replica of one shard of the MOUNTED
            // federation: dial the primary, catch up once (so the first
            // failover read is warm), register as a failover target,
            // then keep following in the background. The replica speaks
            // the obs ops too, so fleet scrapes stay complete with
            // it in the peer set.
            [word, idx] if word == "follow" => {
                let fed = self
                    .fed_remote
                    .lock()
                    .unwrap()
                    .clone()
                    .ok_or(ShellError::Usage(
                        "fed follow: mount a federation first (`mount <dir> fed://host:port/ns`)",
                    ))?;
                let map = fed.map().clone();
                let shard: usize =
                    idx.parse()
                        .ok()
                        .filter(|&i| i < map.shards.len())
                        .ok_or(ShellError::Usage(
                            "fed follow: <shard> must index the mounted shard list",
                        ))?;
                let entry = &map.shards[shard];
                let source = Arc::new(hac_net::NetRemote::connect(
                    &entry.ns,
                    &entry.addr,
                    hac_net::ClientConfig::default(),
                ));
                let replica = Arc::new(hac_fed::Replica::new(source));
                let report = replica.sync_once().map_err(|e| {
                    ShellError::Hac(HacError::Remote(hac_core::RemoteError::Unavailable(
                        format!("fed follow: initial sync failed: {e}"),
                    )))
                })?;
                fed.add_replica(shard, Arc::clone(&replica) as Arc<dyn RemoteQuerySystem>);
                self.followers
                    .push(replica.follow(hac_core::remote::RetryPolicy::daemon(
                        std::time::Duration::from_millis(200),
                    )));
                Ok(format!(
                    "following {} @ {}: caught up to manifest seq {} \
                     ({} segments applied), registered for failover\n",
                    entry.ns, entry.addr, report.manifest_seq, report.segments_applied,
                ))
            }
            _ => Err(ShellError::Usage(USAGE)),
        }
    }

    /// The `fleet` command family: scatter-scrape every peer of the
    /// mounted federation (primaries and replicas) and merge the result
    /// the same way `/fleet/metrics` does — one scrape path, two
    /// front-ends.
    fn cmd_fleet(&mut self, args: &[String]) -> Result<String, ShellError> {
        const USAGE: &str = "fleet stats [--prom]";
        let prom = match args {
            [word] if word == "stats" => false,
            [word, flag] if word == "stats" && flag == "--prom" => true,
            _ => return Err(ShellError::Usage(USAGE)),
        };
        if self.fed_remote.lock().unwrap().is_none() {
            return Ok(
                "no federation mounted (fleet stats scrapes the peers behind \
                 `mount … fed://`)\n"
                    .to_string(),
            );
        }
        let text = hac_obs::http::fleet_metrics_text(&self.fleet_hooks());
        if prom {
            return Ok(text);
        }
        // Compact summary: the scrape above refreshed the per-peer
        // up/down markers in the local registry; series counts come from
        // the merged exposition itself.
        let snap = hac_obs::snapshot();
        let mut peers: Vec<(String, i128)> = snap
            .gauges
            .iter()
            .filter(|g| g.id.name == "hac_fleet_peer_up")
            .filter_map(|g| {
                let node = g.id.labels.iter().find(|(k, _)| k == "node")?;
                Some((node.1.clone(), g.value))
            })
            .collect();
        peers.sort();
        let up = peers.iter().filter(|(_, v)| *v == 1).count();
        let partial = snap
            .gauge_value("hac_fleet_scrape_partial", &[])
            .unwrap_or(0)
            != 0;
        let mut out = format!(
            "fleet scrape: {} peers ({} up, {} down), result {}\n",
            peers.len(),
            up,
            peers.len() - up,
            if partial { "PARTIAL" } else { "complete" },
        );
        for (node, value) in &peers {
            if *value == 1 {
                let series = text
                    .lines()
                    .filter(|l| !l.starts_with('#') && l.contains(&format!("node=\"{node}\"")))
                    .count();
                out.push_str(&format!("  {node:<32} up    {series:>5} series\n"));
            } else {
                out.push_str(&format!("  {node:<32} DOWN\n"));
            }
        }
        out.push_str("merged exposition: `fleet stats --prom` or GET /fleet/metrics\n");
        Ok(out)
    }

    /// Builds the fleet hooks for [`hac_obs::ObsServer::serve_fleet`]
    /// and `fleet stats`: thin closures over the mounted federation's
    /// scatter helpers. With no federation mounted they return empty
    /// peer sets — the obs endpoints then serve the purely local view.
    fn fleet_hooks(&self) -> hac_obs::http::FleetHooks {
        let self_node = self
            .server_addr()
            .or_else(|| self.fed_servers.first().map(hac_net::HacServer::local_addr))
            .map(|a| a.to_string())
            .unwrap_or_else(|| "coordinator".to_string());
        let fed = |slot: &Arc<std::sync::Mutex<Option<Arc<hac_fed::FedRemote>>>>| {
            // Clone the handle out so the scatter runs without the lock.
            slot.lock().unwrap().clone()
        };
        let traces = Arc::clone(&self.fed_remote);
        let metrics = Arc::clone(&self.fed_remote);
        let health = Arc::clone(&self.fed_remote);
        hac_obs::http::FleetHooks {
            self_node,
            trace_spans: Arc::new(move |id| {
                fed(&traces).map(|f| f.fleet_trace(id)).unwrap_or_default()
            }),
            metrics: Arc::new(move || fed(&metrics).map(|f| f.fleet_metrics()).unwrap_or_default()),
            health: Arc::new(move || match fed(&health) {
                Some(f) => format!("{}\n", f.status().to_json()),
                None => "{\"federation\":null}\n".to_string(),
            }),
        }
    }

    /// Builds the `/statusz` closure for the observability server: a JSON
    /// snapshot of index shape, metadata footprint, the exporting
    /// `HacServer` (if any), buffered telemetry, and the tracing toggle.
    fn status_fn(&self) -> hac_obs::http::StatusFn {
        let fs = Arc::clone(&self.fs);
        let net_addr = Arc::clone(&self.net_addr);
        Arc::new(move || {
            let s = fs.index_stats();
            let server = match *net_addr.lock().unwrap() {
                Some(addr) => format!("\"tcp://{addr}/\""),
                None => "null".to_string(),
            };
            format!(
                "{{\"index\":{{\"docs\":{},\"terms\":{},\"blocks\":{},\"bytes\":{}}},\
                 \"metadata_bytes\":{},\"hac_server\":{},\
                 \"events_buffered\":{},\"slow_ops_buffered\":{},\
                 \"tracing_enabled\":{}}}\n",
                s.docs,
                s.terms,
                s.blocks,
                s.total_bytes(),
                fs.metadata_bytes(),
                server,
                hac_obs::recent_events().len(),
                hac_obs::slow_ops().len(),
                hac_obs::tracing_enabled(),
            )
        })
    }

    /// Executes a `;`-separated script, collecting output; stops at the
    /// first error.
    pub fn exec_script(&mut self, script: &str) -> Result<String, ShellError> {
        let mut out = String::new();
        for part in script.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push_str(&self.exec(part)?);
        }
        Ok(out)
    }
}

/// True for the flags shared by `top` and `stats --watch`.
fn is_refresh_flag(f: &str) -> bool {
    f == "--watch" || f.starts_with("--watch=") || f.starts_with("--frames=")
}

/// Parses `--watch[=secs]` / `--frames=n` into (interval, frame count).
/// `--watch` alone refreshes every 2s until interrupted; `--frames` bounds
/// the loop (tests and scripts use it). Returns `None` on malformed values.
fn parse_refresh_flags(flags: &[String]) -> Option<(std::time::Duration, u64)> {
    let mut interval = std::time::Duration::from_secs(2);
    let mut frames = u64::MAX;
    for f in flags {
        if let Some(v) = f.strip_prefix("--watch=") {
            let secs: f64 = v.parse().ok().filter(|s| *s > 0.0)?;
            interval = std::time::Duration::from_secs_f64(secs);
        } else if let Some(v) = f.strip_prefix("--frames=") {
            frames = v.parse().ok().filter(|n| *n > 0)?;
        } else if f != "--watch" {
            return None;
        }
    }
    Some((interval, frames))
}

/// Shared refresh loop of `top --watch` and `stats --watch`: renders a
/// frame, prints it behind an ANSI clear-screen, sleeps, repeats. The last
/// frame is also *returned* so scripted callers (and tests) get output
/// through the normal command path.
fn watch_loop(interval: std::time::Duration, frames: u64, render: impl Fn() -> String) -> String {
    let mut last = String::new();
    for i in 0..frames {
        last = render();
        // \x1b[2J clears the screen, \x1b[H homes the cursor.
        print!("\x1b[2J\x1b[H{last}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if i + 1 < frames {
            std::thread::sleep(interval);
        }
    }
    last
}

fn render_stats_for(fs: &HacFs) -> String {
    let s = fs.index_stats();
    let mut out = format!(
        "docs {}  terms {}  blocks {}  index {} B  hac-metadata {} B\n",
        s.docs,
        s.terms,
        s.blocks,
        s.total_bytes(),
        fs.metadata_bytes()
    );
    let snap = hac_obs::snapshot();
    if !snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for c in &snap.counters {
            out.push_str(&format!("  {:<56} {}\n", c.id.render(), c.value));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for g in &snap.gauges {
            out.push_str(&format!("  {:<56} {}\n", g.id.render(), g.value));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        for h in &snap.histograms {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            out.push_str(&format!(
                "  {:<56} count {}  sum {}  mean {}\n",
                h.id.render(),
                h.count,
                h.sum,
                mean
            ));
        }
    }
    out
}

/// Formats a rate for the dashboard (`-` until two samples exist).
fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(r) => format!("{r:.1}"),
        None => "-".to_string(),
    }
}

/// Formats a windowed percentile in µs.
fn fmt_pct(v: Option<u64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "-".to_string(),
    }
}

/// One frame of the `top` dashboard: windowed rates, percentiles, daemon
/// and store health, the federation panel (when one is mounted), and the
/// active-alert list, all from the global time-series layer.
fn render_top(fs: &HacFs, fed: Option<&hac_fed::FedRemote>) -> String {
    let ts = hac_obs::timeseries::global();
    let snap = hac_obs::snapshot();
    let s = fs.index_stats();
    let mut out = String::new();
    out.push_str(&format!(
        "hac top — sampler {} @ {}ms, {} samples\n",
        if hac_obs::sampler_running() {
            "running"
        } else {
            "on-demand"
        },
        ts.interval_ms(),
        ts.sample_count()
    ));
    out.push_str(&format!(
        "index      docs {}  terms {}  index {} B  metadata {} B\n",
        s.docs,
        s.terms,
        s.total_bytes(),
        fs.metadata_bytes()
    ));
    out.push_str(&format!(
        "server rps 1s {:>8}  10s {:>8}  60s {:>8}   err {} (10s)\n",
        fmt_rate(ts.rate("hac_net_server_requests_total", 1)),
        fmt_rate(ts.rate("hac_net_server_requests_total", 10)),
        fmt_rate(ts.rate("hac_net_server_requests_total", 60)),
        match ts.ratio(
            "hac_net_server_errors_total",
            "hac_net_server_requests_total",
            10
        ) {
            Some(r) => format!("{:.2}%", r * 100.0),
            None => "-".to_string(),
        },
    ));
    out.push_str(&format!(
        "server lat p50 {:>7}us  p95 {:>7}us  p99 {:>7}us  (60s)\n",
        fmt_pct(ts.percentile_us("hac_net_server_request_duration_us", 60, 50.0)),
        fmt_pct(ts.percentile_us("hac_net_server_request_duration_us", 60, 95.0)),
        fmt_pct(ts.percentile_us("hac_net_server_request_duration_us", 60, 99.0)),
    ));
    out.push_str(&format!(
        "query eval p50 {:>7}us  p95 {:>7}us  p99 {:>7}us  {}/s (10s)\n",
        fmt_pct(ts.percentile_us("hac_query_eval_duration_us", 60, 50.0)),
        fmt_pct(ts.percentile_us("hac_query_eval_duration_us", 60, 95.0)),
        fmt_pct(ts.percentile_us("hac_query_eval_duration_us", 60, 99.0)),
        fmt_rate(ts.rate("hac_query_evals_total", 10)),
    ));
    let passes_ok = snap
        .counter_value("hac_reindex_passes_total", &[("outcome", "ok")])
        .unwrap_or(0);
    let passes_failed = snap
        .counter_value("hac_reindex_passes_total", &[("outcome", "failed")])
        .unwrap_or(0);
    out.push_str(&format!(
        "reindex    passes ok {passes_ok}  failed {passes_failed}  backoff {} ms  dirty {}\n",
        snap.gauge_value("hac_reindex_backoff_ms", &[]).unwrap_or(0),
        snap.gauge_value("hac_reindex_dirty_docs", &[]).unwrap_or(0),
    ));
    out.push_str(&format!(
        "store      commit p99 {:>7}us (60s)  segments live {}\n",
        fmt_pct(ts.percentile_us("hac_store_commit_us", 60, 99.0)),
        snap.gauge_value("hac_store_segments_live", &[])
            .unwrap_or(0),
    ));
    if let Some(fed) = fed {
        let st = fed.status();
        let count = |h: hac_fed::ShardHealth| st.shards.iter().filter(|s| s.health() == h).count();
        out.push_str(&format!(
            "federation {}: {} shards ({} up, {} degraded, {} down)  last result {}\n",
            st.logical,
            st.shards.len(),
            count(hac_fed::ShardHealth::Up),
            count(hac_fed::ShardHealth::Degraded),
            count(hac_fed::ShardHealth::Down),
            if st.last_partial {
                "PARTIAL"
            } else {
                "complete"
            },
        ));
        // Replica lag, worst case across followed namespaces (the
        // gauges are per-ns; a caught-up fleet reads 0/0).
        let worst = |name: &str| {
            snap.gauges
                .iter()
                .filter(|g| g.id.name == name)
                .map(|g| g.value)
                .max()
        };
        if let (Some(segs), Some(us)) = (
            worst("hac_fed_replica_lag_segments"),
            worst("hac_fed_replica_lag_us"),
        ) {
            out.push_str(&format!(
                "           replica lag max {segs} segments, {us} us\n"
            ));
        }
    }
    let status = hac_obs::slo::engine().status();
    let active: Vec<&hac_obs::slo::SloStatus> = status
        .iter()
        .filter(|s| s.state != hac_obs::SloState::Ok)
        .collect();
    if status.is_empty() {
        out.push_str("alerts     (no objectives installed)\n");
    } else if active.is_empty() {
        out.push_str(&format!(
            "alerts     none ({} objectives ok)\n",
            status.len()
        ));
    } else {
        for a in active {
            out.push_str(&format!(
                "alerts     [{}] {}  value {}  threshold {:.3}\n",
                a.state.as_str().to_uppercase(),
                a.spec.name,
                a.value
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
                a.spec.threshold(),
            ));
        }
    }
    out
}

/// `slo status`: every installed objective with its state and last value.
fn render_slo_status() -> String {
    let status = hac_obs::slo::engine().status();
    if status.is_empty() {
        return "no objectives installed\n".to_string();
    }
    let mut out = String::new();
    for s in &status {
        out.push_str(&format!(
            "{:<7} {:<60} value {}\n",
            s.state.as_str(),
            s.spec.render(),
            s.value
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".to_string()),
        ));
    }
    let recent = hac_obs::slo::engine().recent_alerts();
    if !recent.is_empty() {
        out.push_str("recent transitions:\n");
        for a in recent.iter().rev().take(8) {
            out.push_str(&format!("  {}\n", a.message));
        }
    }
    out
}

fn target_str(t: &LinkTarget) -> String {
    match t {
        LinkTarget::Local(fid) => format!("local {fid}"),
        LinkTarget::Remote(ns, id) => format!("remote {ns}:{id}"),
    }
}

/// `help` text.
pub const HELP: &str = "\
file system : pwd cd ls [-l] cat mkdir [-p] write append rm [-r] rmdir mv \
ln readlink
semantic    : smkdir <dir> <query> | query <dir> | chquery <dir> <query> | \
sact <link> | ssync [path] | find <query> | explain <query>
curation    : links <dir> | prohibited <dir> | forgive <dir> <i> | pin <link>
network     : serve <addr> <ns> [dir] | serve stop | serve status | \
mount <dir> tcp://host:port/ns
federation  : fed serve <addr> <ns> <shards> [dir] | \
fed shard <i> <ns> <addr0,addr1,…> [dir] | fed follow <shard> | \
fed stop | fed status | fleet stats [--prom] | mount <dir> fed://host:port/ns
observe     : obs-serve <addr>|stop|status | trace <id> | \
stats [--prom|--events|--watch[=secs]] | top [--watch[=secs]] | slo status
durability  : store status | store gc [grace] | store checkpoint
other       : mounts <dir> | help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn sh() -> Shell {
        let mut sh = Shell::new();
        sh.exec("mkdir /docs").unwrap();
        sh.exec("write /docs/a.txt fingerprint ridge patterns")
            .unwrap();
        sh.exec("write /docs/b.txt grocery list").unwrap();
        sh.exec("ssync").unwrap();
        sh
    }

    #[test]
    fn basic_file_commands() {
        let mut sh = sh();
        assert_eq!(sh.exec("pwd").unwrap(), "/");
        sh.exec("cd /docs").unwrap();
        assert_eq!(sh.exec("pwd").unwrap(), "/docs");
        assert_eq!(sh.exec("ls").unwrap(), "a.txt\nb.txt\n");
        assert_eq!(sh.exec("cat a.txt").unwrap(), "fingerprint ridge patterns");
        // Relative paths resolve against cwd.
        sh.exec("write c.txt more words").unwrap();
        assert!(sh.exec("ls").unwrap().contains("c.txt"));
        sh.exec("mv c.txt d.txt").unwrap();
        sh.exec("rm d.txt").unwrap();
        assert!(!sh.exec("ls").unwrap().contains("d.txt"));
    }

    #[test]
    fn semantic_workflow() {
        let mut sh = sh();
        let out = sh.exec("smkdir /fp fingerprint").unwrap();
        assert!(out.contains("1 links"), "{out}");
        assert_eq!(sh.exec("ls /fp").unwrap(), "a.txt\n");
        assert_eq!(sh.exec("query /fp").unwrap(), "fingerprint\n");
        assert_eq!(
            sh.exec("sact /fp/a.txt").unwrap(),
            "fingerprint ridge patterns\n"
        );
        sh.exec("chquery /fp grocery").unwrap();
        assert_eq!(sh.exec("ls /fp").unwrap(), "b.txt\n");
        // ls -l marks semantic directories and link targets.
        let long = sh.exec("ls -l /").unwrap();
        assert!(long.contains("[semantic]"), "{long}");
        let long = sh.exec("ls -l /fp").unwrap();
        assert!(long.contains("-> /docs/b.txt"), "{long}");
    }

    #[test]
    fn curation_commands() {
        let mut sh = sh();
        sh.exec("smkdir /fp fingerprint").unwrap();
        sh.exec("rm /fp/a.txt").unwrap();
        let prohibited = sh.exec("prohibited /fp").unwrap();
        assert!(prohibited.contains("[0] local"), "{prohibited}");
        sh.exec("ssync").unwrap();
        assert_eq!(sh.exec("ls /fp").unwrap(), "");
        sh.exec("forgive /fp 0").unwrap();
        assert_eq!(sh.exec("ls /fp").unwrap(), "a.txt\n");
        sh.exec("ln /docs/b.txt /fp/extra").unwrap();
        sh.exec("pin /fp/a.txt").unwrap();
        let links = sh.exec("links /fp").unwrap();
        assert!(links.contains("permanent a.txt"), "{links}");
        assert!(links.contains("permanent extra"), "{links}");
    }

    #[test]
    fn quoted_queries_and_scripts() {
        let mut sh = Shell::new();
        let out = sh
            .exec_script(
                "mkdir /d; write /d/x.txt ridge endings here; ssync; \
                 smkdir /q \"ridge endings\"; ls /q",
            )
            .unwrap();
        assert!(out.contains("x.txt"), "{out}");
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let mut sh = sh();
        assert!(matches!(
            sh.exec("frobnicate"),
            Err(ShellError::UnknownCommand(_))
        ));
        assert!(sh.exec("cd").is_ok());
        assert!(matches!(sh.exec("cd /docs/a.txt"), Err(ShellError::Hac(_))));
        assert!(matches!(sh.exec("cat"), Err(ShellError::Usage(_))));
        assert!(matches!(sh.exec("cat /nope"), Err(ShellError::Hac(_))));
        // Still alive.
        assert_eq!(sh.exec("pwd").unwrap(), "/");
    }

    #[test]
    fn find_is_cwd_scoped() {
        let mut sh = sh();
        sh.exec("mkdir /other").unwrap();
        sh.exec("write /other/z.txt fingerprint elsewhere").unwrap();
        sh.exec("ssync").unwrap();
        sh.exec("cd /docs").unwrap();
        let out = sh.exec("find fingerprint").unwrap();
        assert!(out.contains("/docs/a.txt"));
        assert!(!out.contains("/other/z.txt"));
        let empty = sh.exec("find nosuchword").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn serve_and_mount_over_loopback() {
        // One shell exports its fs; a second mounts it over real TCP.
        let mut exporter = Shell::new();
        exporter
            .exec_script(
                "mkdir /pub; write /pub/notes.txt shared semantic notes; \
                 write /pub/misc.txt grocery list; ssync",
            )
            .unwrap();
        let out = exporter.exec("serve 127.0.0.1:0 team /pub").unwrap();
        assert!(out.contains("serving team on tcp://"), "{out}");
        let addr = exporter.server_addr().expect("server running");
        let status = exporter.exec("serve status").unwrap();
        assert!(status.contains(&addr.to_string()), "{status}");
        assert!(status.contains("loop:"), "{status}");
        assert!(status.contains("workers"), "{status}");
        assert!(matches!(
            exporter.exec("serve 127.0.0.1:0 again"),
            Err(ShellError::Usage(_))
        ));

        let mut importer = Shell::new();
        importer.exec("mkdir /lib").unwrap();
        let out = importer
            .exec(&format!("mount /lib tcp://{addr}/team"))
            .unwrap();
        assert!(out.contains("mounted team at /lib"), "{out}");
        assert_eq!(importer.exec("mounts /lib").unwrap(), "team\n");
        let out = importer.exec("smkdir /sem semantic").unwrap();
        assert!(out.contains("1 links"), "{out}");
        assert!(importer.exec("ls /sem").unwrap().contains("notes.txt"));
        // cat follows the remote link and fetches the bytes over the wire.
        let body = importer.exec("cat /sem/notes.txt").unwrap();
        assert!(body.contains("shared semantic notes"), "{body}");

        assert!(matches!(
            importer.exec("mount /lib http://nope/x"),
            Err(ShellError::Usage(_))
        ));
        let stopped = exporter.exec("serve stop").unwrap();
        assert!(stopped.contains("stopped server"), "{stopped}");
        assert_eq!(exporter.exec("serve stop").unwrap(), "no server running\n");
    }

    #[test]
    fn stats_and_help() {
        let mut sh = sh();
        assert!(sh.exec("stats").unwrap().contains("docs 2"));
        assert!(sh.exec("help").unwrap().contains("smkdir"));
        assert_eq!(sh.exec("").unwrap(), "");
    }

    #[test]
    fn top_slo_and_watch_render() {
        let mut sh = sh();
        let top = sh.exec("top").unwrap();
        assert!(top.contains("hac top —"), "{top}");
        assert!(top.contains("server rps"), "{top}");
        assert!(top.contains("query eval"), "{top}");
        // Default objectives were installed by the first `top`.
        let slo = sh.exec("slo status").unwrap();
        assert!(slo.contains("query-latency"), "{slo}");
        assert!(slo.starts_with("ok"), "fresh objectives are ok: {slo}");
        // Bounded watch loops return their last frame.
        let watched = sh.exec("stats --watch=0.01 --frames=2").unwrap();
        assert!(watched.contains("docs 2"), "{watched}");
        let watched = sh.exec("top --watch=0.01 --frames=2").unwrap();
        assert!(watched.contains("hac top —"), "{watched}");
        assert!(matches!(sh.exec("top --bogus"), Err(ShellError::Usage(_))));
        assert!(matches!(
            sh.exec("top --watch=nope"),
            Err(ShellError::Usage(_))
        ));
        assert!(matches!(sh.exec("slo bogus"), Err(ShellError::Usage(_))));
    }

    #[test]
    fn store_commands() {
        let mut sh = sh(); // sh() ran one ssync over two docs
        let status = sh.exec("store status").unwrap();
        assert!(status.contains("segments 1 (2 docs"), "{status}");
        // Checkpoint folds the run into a base snapshot...
        let checkpointed = sh.exec("store checkpoint").unwrap();
        assert!(checkpointed.contains("0 segments live"), "{checkpointed}");
        assert!(sh.exec("store status").unwrap().contains("base yes"));
        // ...leaving the superseded segment + manifests for gc.
        let swept = sh.exec("store gc 0").unwrap();
        assert!(!swept.starts_with("removed 0"), "{swept}");
        assert!(sh.exec("store gc 0").unwrap().starts_with("removed 0"));
        assert!(matches!(sh.exec("store bogus"), Err(ShellError::Usage(_))));
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    #[test]
    fn explain_reports_verification_work() {
        let mut sh = Shell::new();
        sh.exec_script("mkdir /d; write /d/a.txt ridge valley; write /d/b.txt valley only; ssync")
            .unwrap();
        let out = sh.exec("explain ridge").unwrap();
        assert!(out.starts_with("1 hits;"), "{out}");
        assert!(out.contains("candidates"), "{out}");
        assert!(matches!(sh.exec("explain"), Err(ShellError::Usage(_))));
    }
}
