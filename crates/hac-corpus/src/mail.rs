//! Synthetic mailboxes.
//!
//! The paper's running example files fingerprint-project email into
//! semantic directories by sender, topic, or both. This generator produces
//! RFC-822-ish messages that the mail transducer can field-index.

use hac_vfs::{VPath, Vfs, VfsResult};

use crate::rng::Rng;
use crate::words::Vocabulary;

/// People appearing in generated mail.
pub const SENDERS: &[&str] = &["alice", "bob", "carol", "dave", "erin", "frank"];

/// Topics; each biases the body vocabulary toward its own marker word.
pub const TOPICS: &[&str] = &["fingerprint", "budget", "deadline", "meeting", "release"];

/// Parameters for a mailbox.
#[derive(Debug, Clone)]
pub struct MailboxSpec {
    /// Number of messages.
    pub messages: usize,
    /// Mean body words.
    pub body_words: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MailboxSpec {
    fn default() -> Self {
        MailboxSpec {
            messages: 60,
            body_words: 40,
            seed: 7,
        }
    }
}

/// One generated message's metadata (for assertions in tests/benches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailMeta {
    /// File path of the message.
    pub path: VPath,
    /// Sender (a member of [`SENDERS`]).
    pub from: String,
    /// Topic (a member of [`TOPICS`]).
    pub topic: String,
}

/// Generates a mailbox of `.eml` files under `root`.
///
/// # Errors
///
/// Propagates VFS errors.
pub fn generate_mailbox(vfs: &Vfs, root: &VPath, spec: &MailboxSpec) -> VfsResult<Vec<MailMeta>> {
    let vocab = Vocabulary::new(2000, 1.0);
    let mut r = Rng::seeded(spec.seed);
    vfs.mkdir_p(root)?;
    let mut out = Vec::with_capacity(spec.messages);
    for i in 0..spec.messages {
        let from = SENDERS[r.range(0..SENDERS.len())].to_string();
        let to = SENDERS[r.range(0..SENDERS.len())].to_string();
        let topic = TOPICS[r.range(0..TOPICS.len())].to_string();
        let mut body = vocab.sample_text(&mut r, spec.body_words);
        // The topic word appears in the body too, so content queries and
        // field queries can both find the message.
        body.push(' ');
        body.push_str(&topic);
        let msg = format!(
            "From: {from} <{from}@example.org>\r\n\
To: {to} <{to}@example.org>\r\n\
Subject: {topic} update {i}\r\n\
Date: 1999-{:02}-{:02}\r\n\
\r\n\
{body}\r\n",
            (i % 12) + 1,
            (i % 28) + 1,
        );
        let path = root.join(&format!("msg{i:04}.eml"))?;
        vfs.save(&path, msg.as_bytes())?;
        out.push(MailMeta { path, from, topic });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::parse(s).unwrap()
    }

    #[test]
    fn generates_parseable_mail() {
        let vfs = Vfs::new();
        let metas = generate_mailbox(&vfs, &p("/mail"), &MailboxSpec::default()).unwrap();
        assert_eq!(metas.len(), 60);
        let content = vfs.read_file(&metas[0].path).unwrap();
        let text = String::from_utf8(content.to_vec()).unwrap();
        assert!(text.starts_with("From: "));
        assert!(text.contains("\r\n\r\n"), "has a header/body separator");
        assert!(text.contains(&format!("Subject: {} update", metas[0].topic)));
    }

    #[test]
    fn topics_and_senders_both_occur() {
        let vfs = Vfs::new();
        let metas = generate_mailbox(
            &vfs,
            &p("/mail"),
            &MailboxSpec {
                messages: 120,
                ..Default::default()
            },
        )
        .unwrap();
        let senders: std::collections::HashSet<&str> =
            metas.iter().map(|m| m.from.as_str()).collect();
        let topics: std::collections::HashSet<&str> =
            metas.iter().map(|m| m.topic.as_str()).collect();
        assert!(senders.len() >= 4);
        assert!(topics.len() >= 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let vfs1 = Vfs::new();
        let vfs2 = Vfs::new();
        let m1 = generate_mailbox(&vfs1, &p("/m"), &MailboxSpec::default()).unwrap();
        let m2 = generate_mailbox(&vfs2, &p("/m"), &MailboxSpec::default()).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(
            vfs1.read_file(&m1[5].path).unwrap(),
            vfs2.read_file(&m2[5].path).unwrap()
        );
    }
}
