//! User-level file-system baselines for Table 2.
//!
//! The paper compares HAC's Andrew-benchmark slowdown with two other
//! user-level file systems: **Jade** (a logical, per-user name space
//! resolved component-wise through mapping tables) and **Pseudo** (Sprite's
//! pseudo-file-systems, where operations are RPCs to a user-level server
//! process). We re-create the characteristic *cost structure* of each as a
//! layer over the same substrate, so all slowdowns are measured against
//! the same "UNIX".

use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, RwLock};

use hac_obs::sync::{read, write};
use hac_vfs::{NodeKind, VPath, Vfs};

use crate::fsops::FsOps;

/// Jade-like layer: every path is resolved through a per-component logical
/// name table (here an identity mapping, but every component still pays the
/// lookup, string assembly, and cache bookkeeping that Jade's logical name
/// spaces pay).
pub struct JadeLike {
    vfs: Arc<Vfs>,
    /// logical prefix → physical prefix.
    table: RwLock<HashMap<String, String>>,
    /// Resolution cache (Jade caches resolved names).
    cache: RwLock<HashMap<String, VPath>>,
}

impl JadeLike {
    /// New layer over a fresh substrate.
    pub fn new() -> Self {
        JadeLike {
            vfs: Arc::new(Vfs::new()),
            table: RwLock::new(HashMap::new()),
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Installs a logical → physical mapping for a path prefix.
    pub fn map_prefix(&self, logical: &str, physical: &str) {
        write(&self.table).insert(logical.to_string(), physical.to_string());
        write(&self.cache).clear();
    }

    fn resolve(&self, path: &VPath) -> Result<VPath, String> {
        let key = path.to_string();
        if let Some(hit) = read(&self.cache).get(&key) {
            return Ok(hit.clone());
        }
        // Component-wise translation: at each level, the accumulated
        // logical prefix is looked up in the mapping table.
        let table = read(&self.table);
        let mut logical = String::new();
        let mut physical = String::new();
        for comp in path.components() {
            logical.push('/');
            logical.push_str(comp);
            match table.get(&logical) {
                Some(mapped) => physical = mapped.clone(),
                None => {
                    physical.push('/');
                    physical.push_str(comp);
                }
            }
        }
        if physical.is_empty() {
            physical.push('/');
        }
        let resolved = VPath::parse(&physical).map_err(|e| e.to_string())?;
        write(&self.cache).insert(key, resolved.clone());
        Ok(resolved)
    }
}

impl Default for JadeLike {
    fn default() -> Self {
        Self::new()
    }
}

impl FsOps for JadeLike {
    fn label(&self) -> String {
        "Jade-like".to_string()
    }

    fn mkdir(&self, path: &VPath) -> Result<(), String> {
        let p = self.resolve(path)?;
        self.vfs.mkdir(&p).map(|_| ()).map_err(|e| e.to_string())
    }

    fn save(&self, path: &VPath, data: &[u8]) -> Result<(), String> {
        let p = self.resolve(path)?;
        self.vfs
            .save(&p, data)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn readdir(&self, path: &VPath) -> Result<Vec<(String, bool)>, String> {
        let p = self.resolve(path)?;
        self.vfs
            .readdir(&p)
            .map(|v| {
                v.into_iter()
                    .map(|e| (e.name, e.kind == NodeKind::Dir))
                    .collect()
            })
            .map_err(|e| e.to_string())
    }

    fn stat_size(&self, path: &VPath) -> Result<u64, String> {
        let p = self.resolve(path)?;
        self.vfs.stat(&p).map(|a| a.size).map_err(|e| e.to_string())
    }

    fn read(&self, path: &VPath) -> Result<Vec<u8>, String> {
        let p = self.resolve(path)?;
        self.vfs
            .read_file(&p)
            .map(|b| b.to_vec())
            .map_err(|e| e.to_string())
    }
}

enum Request {
    Mkdir(VPath),
    Save(VPath, Vec<u8>),
    Readdir(VPath),
    Stat(VPath),
    Read(VPath),
    Shutdown,
}

enum Response {
    Unit(Result<(), String>),
    Listing(Result<Vec<(String, bool)>, String>),
    Size(Result<u64, String>),
    Bytes(Result<Vec<u8>, String>),
}

/// Pseudo-like layer: every operation is marshalled into a message, sent to
/// a server thread that owns the real file system, and the reply marshalled
/// back — the round-trip structure of Sprite's pseudo-file-systems.
pub struct PseudoLike {
    tx: SyncSender<(Request, SyncSender<Response>)>,
    _server: std::thread::JoinHandle<()>,
}

impl PseudoLike {
    /// Spawns the server thread over a fresh substrate.
    pub fn new() -> Self {
        let (tx, rx) = sync_channel::<(Request, SyncSender<Response>)>(0);
        let server = std::thread::spawn(move || {
            let vfs = Vfs::new();
            while let Ok((req, reply)) = rx.recv() {
                let resp = match req {
                    Request::Mkdir(p) => {
                        Response::Unit(vfs.mkdir(&p).map(|_| ()).map_err(|e| e.to_string()))
                    }
                    Request::Save(p, data) => {
                        Response::Unit(vfs.save(&p, &data).map(|_| ()).map_err(|e| e.to_string()))
                    }
                    Request::Readdir(p) => Response::Listing(
                        vfs.readdir(&p)
                            .map(|v| {
                                v.into_iter()
                                    .map(|e| (e.name, e.kind == NodeKind::Dir))
                                    .collect()
                            })
                            .map_err(|e| e.to_string()),
                    ),
                    Request::Stat(p) => {
                        Response::Size(vfs.stat(&p).map(|a| a.size).map_err(|e| e.to_string()))
                    }
                    Request::Read(p) => Response::Bytes(
                        vfs.read_file(&p)
                            .map(|b| b.to_vec())
                            .map_err(|e| e.to_string()),
                    ),
                    Request::Shutdown => break,
                };
                let _ = reply.send(resp);
            }
        });
        PseudoLike {
            tx,
            _server: server,
        }
    }

    fn call(&self, req: Request) -> Response {
        let (rtx, rrx) = sync_channel(1);
        self.tx.send((req, rtx)).expect("pseudo server alive");
        rrx.recv().expect("pseudo server replies")
    }
}

impl Default for PseudoLike {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PseudoLike {
    fn drop(&mut self) {
        let (rtx, _rrx) = sync_channel(1);
        let _ = self.tx.send((Request::Shutdown, rtx));
    }
}

impl FsOps for PseudoLike {
    fn label(&self) -> String {
        "Pseudo-like".to_string()
    }

    fn mkdir(&self, path: &VPath) -> Result<(), String> {
        match self.call(Request::Mkdir(path.clone())) {
            Response::Unit(r) => r,
            _ => Err("protocol mismatch".to_string()),
        }
    }

    fn save(&self, path: &VPath, data: &[u8]) -> Result<(), String> {
        match self.call(Request::Save(path.clone(), data.to_vec())) {
            Response::Unit(r) => r,
            _ => Err("protocol mismatch".to_string()),
        }
    }

    fn readdir(&self, path: &VPath) -> Result<Vec<(String, bool)>, String> {
        match self.call(Request::Readdir(path.clone())) {
            Response::Listing(r) => r,
            _ => Err("protocol mismatch".to_string()),
        }
    }

    fn stat_size(&self, path: &VPath) -> Result<u64, String> {
        match self.call(Request::Stat(path.clone())) {
            Response::Size(r) => r,
            _ => Err("protocol mismatch".to_string()),
        }
    }

    fn read(&self, path: &VPath) -> Result<Vec<u8>, String> {
        match self.call(Request::Read(path.clone())) {
            Response::Bytes(r) => r,
            _ => Err("protocol mismatch".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    fn exercise(fs: &dyn FsOps) {
        fs.mkdir(&p("/d")).unwrap();
        fs.save(&p("/d/f.txt"), b"payload").unwrap();
        assert_eq!(fs.stat_size(&p("/d/f.txt")).unwrap(), 7);
        assert_eq!(fs.read(&p("/d/f.txt")).unwrap(), b"payload".to_vec());
        let listing = fs.readdir(&p("/d")).unwrap();
        assert_eq!(listing, vec![("f.txt".to_string(), false)]);
        assert!(fs.read(&p("/d/missing")).is_err());
    }

    #[test]
    fn jade_like_behaves() {
        exercise(&JadeLike::new());
    }

    #[test]
    fn jade_mapping_redirects() {
        let j = JadeLike::new();
        j.mkdir(&p("/real")).unwrap();
        j.save(&p("/real/f"), b"x").unwrap();
        j.map_prefix("/alias", "/real");
        assert_eq!(j.read(&p("/alias/f")).unwrap(), b"x".to_vec());
    }

    #[test]
    fn pseudo_like_behaves() {
        exercise(&PseudoLike::new());
    }
}
