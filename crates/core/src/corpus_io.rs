//! Corpus persistence: save retained seeds as `.sql` files and load a seed
//! directory back into a fuzzer (continuous-fuzzing workflows re-start from
//! the previous corpus, as the paper's two-week campaigns do).

use lego_sqlast::TestCase;
use std::borrow::Borrow;
use std::io;
use std::path::Path;

/// Write every test case as `seed_NNNN.sql` under `dir` (created if needed).
///
/// Stale `seed_*.sql` files from a previous, larger save are removed first —
/// otherwise a shrunken corpus would silently resurrect old seeds on the
/// next [`load_corpus`]. Only the harness's own `seed_*.sql` naming pattern
/// is touched; any other `.sql` files a user dropped in the directory
/// survive.
pub fn save_corpus<C: Borrow<TestCase>>(dir: &Path, corpus: &[C]) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)?.filter_map(Result::ok) {
        let path = entry.path();
        let stale = path.file_name().and_then(|n| n.to_str()).is_some_and(|name| {
            name.strip_prefix("seed_")
                .and_then(|rest| rest.strip_suffix(".sql"))
                .is_some_and(|mid| !mid.is_empty() && mid.bytes().all(|b| b.is_ascii_digit()))
        });
        if stale {
            std::fs::remove_file(&path)?;
        }
    }
    for (i, case) in corpus.iter().enumerate() {
        std::fs::write(dir.join(format!("seed_{i:04}.sql")), case.borrow().to_sql())?;
    }
    Ok(corpus.len())
}

/// Load every parseable `.sql` file under `dir`, in file-name order.
/// Unparseable files, non-UTF-8 ones included, are skipped and reported in
/// the second tuple element; any other read error fails the load.
pub fn load_corpus(dir: &Path) -> io::Result<(Vec<TestCase>, Vec<String>)> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    entries.sort();
    let mut corpus = Vec::new();
    let mut skipped = Vec::new();
    for path in entries {
        let parsed = match std::fs::read_to_string(&path) {
            Ok(sql) => lego_sqlparser::parse_script(&sql).ok(),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => None,
            Err(e) => return Err(e),
        };
        match parsed {
            Some(case) if !case.is_empty() => corpus.push(case),
            _ => skipped.push(path.display().to_string()),
        }
    }
    Ok((corpus, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlparser::parse_script;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lego_corpus_io_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_corpus() {
        let dir = tmpdir("rt");
        let corpus = vec![
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);").unwrap(),
            parse_script("SELECT 1;").unwrap(),
        ];
        assert_eq!(save_corpus(&dir, &corpus).unwrap(), 2);
        let (loaded, skipped) = load_corpus(&dir).unwrap();
        assert!(skipped.is_empty());
        assert_eq!(loaded, corpus);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrinking_resave_removes_stale_seed_files() {
        let dir = tmpdir("shrink");
        let big = vec![
            parse_script("CREATE TABLE t (a INT);").unwrap(),
            parse_script("SELECT 1;").unwrap(),
            parse_script("SELECT 2;").unwrap(),
        ];
        assert_eq!(save_corpus(&dir, &big).unwrap(), 3);
        // A user-provided extra seed must survive the cleanup.
        std::fs::write(dir.join("extra.sql"), "SELECT 99;").unwrap();
        let small = vec![parse_script("SELECT 3;").unwrap()];
        assert_eq!(save_corpus(&dir, &small).unwrap(), 1);
        let (loaded, skipped) = load_corpus(&dir).unwrap();
        assert!(skipped.is_empty());
        // Exactly seed_0000.sql + extra.sql: the old seed_0001/0002 are gone.
        assert_eq!(loaded.len(), 2);
        assert!(!dir.join("seed_0001.sql").exists());
        assert!(!dir.join("seed_0002.sql").exists());
        assert!(dir.join("extra.sql").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_files_are_skipped_not_fatal() {
        let dir = tmpdir("skip");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.sql"), "FROBNICATE;").unwrap();
        std::fs::write(dir.join("binary.sql"), [0xff, 0xfe]).unwrap();
        std::fs::write(dir.join("good.sql"), "SELECT 1;").unwrap();
        let (loaded, skipped) = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(skipped.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
