//! C-like source trees: the Andrew Benchmark input.
//!
//! The Andrew Benchmark's five phases (Makedir, Copy, Scan, Read, Make)
//! operate on a source tree that is then "compiled". This generator builds
//! a deterministic tree of `.c`/`.h` files with includes and function
//! definitions, so the C-source transducer has real structure to extract
//! and the Make phase has real parsing work to chew on.

use hac_vfs::{VPath, Vfs, VfsResult};

use crate::rng::Rng;
use crate::words::Vocabulary;

/// Parameters of a source tree.
#[derive(Debug, Clone)]
pub struct SourceTreeSpec {
    /// Number of sub-directories (modules).
    pub modules: usize,
    /// C files per module.
    pub files_per_module: usize,
    /// Functions per file.
    pub functions_per_file: usize,
    /// Statements per function.
    pub statements: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SourceTreeSpec {
    fn default() -> Self {
        SourceTreeSpec {
            modules: 8,
            files_per_module: 6,
            functions_per_file: 5,
            statements: 12,
            seed: 11,
        }
    }
}

/// Summary of a generated tree.
#[derive(Debug, Clone)]
pub struct SourceTree {
    /// Root of the tree.
    pub root: VPath,
    /// Every generated file (headers and sources).
    pub files: Vec<VPath>,
    /// Total bytes.
    pub bytes: u64,
}

/// Generates the tree under `root`.
///
/// # Errors
///
/// Propagates VFS errors.
pub fn generate_source_tree(
    vfs: &Vfs,
    root: &VPath,
    spec: &SourceTreeSpec,
) -> VfsResult<SourceTree> {
    let vocab = Vocabulary::new(800, 1.1);
    let mut r = Rng::seeded(spec.seed);
    vfs.mkdir_p(root)?;
    let mut files = Vec::new();
    let mut bytes = 0u64;
    for m in 0..spec.modules {
        let module = root.join(&format!("mod{m:02}"))?;
        vfs.mkdir_p(&module)?;
        // One header per module.
        let header = module.join(&format!("mod{m:02}.h"))?;
        let hdr_text = format!(
            "#ifndef MOD{m:02}_H\n#define MOD{m:02}_H\nint mod{m:02}_init(void);\n#endif\n"
        );
        bytes += hdr_text.len() as u64;
        vfs.save(&header, hdr_text.as_bytes())?;
        files.push(header);
        for f in 0..spec.files_per_module {
            let mut src = String::new();
            src.push_str("#include <stdio.h>\n");
            src.push_str(&format!("#include \"mod{m:02}.h\"\n\n"));
            for g in 0..spec.functions_per_file {
                let fname = format!("{}_{}", vocab.sample(&mut r), g);
                src.push_str(&format!("int fn_{m:02}_{f}_{fname}(int a, int b) {{\n"));
                for s in 0..spec.statements {
                    let v = vocab.sample(&mut r);
                    let k = r.range(1..97);
                    src.push_str(&format!("    int {v}_{s} = (a * {k} + b) % 257;\n"));
                    src.push_str(&format!("    a = a + {v}_{s};\n"));
                }
                src.push_str("    return a - b;\n}\n\n");
            }
            let path = module.join(&format!("file{f:02}.c"))?;
            bytes += src.len() as u64;
            vfs.save(&path, src.as_bytes())?;
            files.push(path);
        }
    }
    Ok(SourceTree {
        root: root.clone(),
        files,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn tree_has_expected_shape() {
        let vfs = Vfs::new();
        let spec = SourceTreeSpec::default();
        let tree = generate_source_tree(&vfs, &p("/src"), &spec).unwrap();
        // modules * (files + 1 header)
        assert_eq!(tree.files.len(), spec.modules * (spec.files_per_module + 1));
        assert!(tree.bytes > 10_000);
        let mods = vfs.readdir(&p("/src")).unwrap();
        assert_eq!(mods.len(), spec.modules);
    }

    #[test]
    fn sources_contain_includes_and_functions() {
        let vfs = Vfs::new();
        let tree = generate_source_tree(&vfs, &p("/src"), &SourceTreeSpec::default()).unwrap();
        let c_file = tree
            .files
            .iter()
            .find(|f| f.to_string().ends_with(".c"))
            .unwrap();
        let text = String::from_utf8(vfs.read_file(c_file).unwrap().to_vec()).unwrap();
        assert!(text.contains("#include <stdio.h>"));
        assert!(text.contains("int fn_"));
        assert!(text.contains("return a - b;"));
    }

    #[test]
    fn deterministic() {
        let a = {
            let vfs = Vfs::new();
            let t = generate_source_tree(&vfs, &p("/s"), &SourceTreeSpec::default()).unwrap();
            vfs.read_file(&t.files[3]).unwrap()
        };
        let b = {
            let vfs = Vfs::new();
            let t = generate_source_tree(&vfs, &p("/s"), &SourceTreeSpec::default()).unwrap();
            vfs.read_file(&t.files[3]).unwrap()
        };
        assert_eq!(a, b);
    }
}
