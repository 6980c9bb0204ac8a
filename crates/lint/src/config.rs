//! `lint.toml` loading.
//!
//! The config file reuses the workspace's TOML-subset reader
//! ([`rperf_model::textcfg`], the PR 4 scenario-spec parser factored
//! out), so lint configuration parses with the same line-numbered errors
//! as scenario files. The format:
//!
//! ```text
//! [[rule]]
//! id = "D4"
//! crates = ["sim", "switch"]
//! # optional: files = ["event.rs"]     (restrict to path suffixes)
//! # optional: hint = "override the built-in fix hint"
//!
//! [[allow]]
//! rule = "D4"
//! path = "crates/switch/src/device.rs"
//! contains = "as_f64"                  # optional: substring of the line
//! justification = "mandatory free text explaining why this is sound"
//! ```
//!
//! The interprocedural rules (I1–I3) additionally take `entries`, the
//! call-graph roots the reachability analysis starts from (patterns per
//! [`crate::graph::Graph::match_entries`]); I4 takes `api_crate`, the
//! crate whose contract-documented functions propagate the doc
//! obligation.

use rperf_model::textcfg::{err, expect_str, expect_str_list, Document, ParseError, Section};

use crate::rules;

/// One enabled rule with its scope.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    /// Rule id, e.g. `D4`. Must be one of [`rules::KNOWN_IDS`].
    pub id: String,
    /// Crate keys (directory names under `crates/`, or `root`) the rule
    /// applies to.
    pub crates: Vec<String>,
    /// When non-empty, the rule only fires in files whose path ends with
    /// one of these suffixes.
    pub files: Vec<String>,
    /// Optional override of the built-in fix hint.
    pub hint: Option<String>,
    /// Call-graph entry-point patterns (interprocedural rules I1–I3).
    pub entries: Vec<String>,
    /// The ordering-contract API crate (rule I4; defaults to `sim`).
    pub api_crate: Option<String>,
}

/// One allowlist entry, silencing matching diagnostics.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule being silenced.
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path: String,
    /// Optional substring the offending source line must contain; pins
    /// the entry to specific call sites so it cannot hide new violations
    /// elsewhere in the file.
    pub contains: Option<String>,
    /// Mandatory human explanation of why the violation is sound.
    pub justification: String,
    /// 1-based `lint.toml` line of the entry (for unused-allow reports).
    pub line: usize,
}

/// The whole parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Enabled rules in file order.
    pub rules: Vec<RuleCfg>,
    /// Allowlist entries in file order.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// The configuration of `id`, if enabled.
    pub fn rule(&self, id: &str) -> Option<&RuleCfg> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// Parses and validates a `lint.toml`.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ParseError`] for syntax errors, unknown
    /// rule ids, duplicate rules, allows on disabled rules, and allows
    /// missing a justification.
    pub fn parse(text: &str) -> Result<Config, ParseError> {
        let doc = Document::parse(text)?;
        doc.top.check_keys("lint.toml", &["version"])?;
        let mut cfg = Config::default();
        for sec in &doc.sections {
            match sec.raw_header.as_str() {
                "[[rule]]" => cfg.rules.push(parse_rule(sec)?),
                "[[allow]]" => cfg.allows.push(parse_allow(sec)?),
                other => {
                    return err(
                        sec.header_line,
                        format!("unknown section `{other}` (expected [[rule]] or [[allow]])"),
                    )
                }
            }
        }
        for a in &cfg.allows {
            if cfg.rule(&a.rule).is_none() {
                return err(
                    a.line,
                    format!("[[allow]] names rule `{}`, which is not enabled", a.rule),
                );
            }
        }
        Ok(cfg)
    }
}

fn parse_rule(sec: &Section) -> Result<RuleCfg, ParseError> {
    sec.check_keys(
        "a [[rule]]",
        &["id", "crates", "files", "hint", "entries", "api_crate"],
    )?;
    let Some((iline, ival)) = sec.get("id") else {
        return err(sec.header_line, "[[rule]] needs an `id` key");
    };
    let id = expect_str(iline, "id", ival)?;
    if !rules::KNOWN_IDS.contains(&id.as_str()) {
        return err(
            iline,
            format!("unknown rule id `{id}` (known: {:?})", rules::KNOWN_IDS),
        );
    }
    let Some((cline, cval)) = sec.get("crates") else {
        return err(
            sec.header_line,
            format!("rule `{id}` needs a `crates` list"),
        );
    };
    let crates = expect_str_list(cline, "crates", cval)?;
    if crates.is_empty() {
        return err(cline, format!("rule `{id}` has an empty `crates` list"));
    }
    let files = match sec.get("files") {
        None => Vec::new(),
        Some((fline, fval)) => expect_str_list(fline, "files", fval)?,
    };
    let hint = match sec.get("hint") {
        None => None,
        Some((hline, hval)) => Some(expect_str(hline, "hint", hval)?),
    };
    let entries = match sec.get("entries") {
        None => Vec::new(),
        Some((eline, eval)) => expect_str_list(eline, "entries", eval)?,
    };
    if matches!(id.as_str(), "I1" | "I2" | "I3") && entries.is_empty() {
        return err(
            sec.header_line,
            format!("reachability rule `{id}` needs a non-empty `entries` list"),
        );
    }
    let api_crate = match sec.get("api_crate") {
        None => None,
        Some((aline, aval)) => Some(expect_str(aline, "api_crate", aval)?),
    };
    Ok(RuleCfg {
        id,
        crates,
        files,
        hint,
        entries,
        api_crate,
    })
}

fn parse_allow(sec: &Section) -> Result<AllowEntry, ParseError> {
    sec.check_keys(
        "an [[allow]]",
        &["rule", "path", "contains", "justification"],
    )?;
    let req = |key: &str| -> Result<(usize, String), ParseError> {
        let Some((line, v)) = sec.get(key) else {
            return err(sec.header_line, format!("[[allow]] needs a `{key}` key"));
        };
        Ok((line, expect_str(line, key, v)?))
    };
    let (_, rule) = req("rule")?;
    let (_, path) = req("path")?;
    let (jline, justification) = req("justification")?;
    if justification.trim().is_empty() {
        return err(jline, "[[allow]] justification must not be empty");
    }
    let contains = match sec.get("contains") {
        None => None,
        Some((line, v)) => Some(expect_str(line, "contains", v)?),
    };
    Ok(AllowEntry {
        rule,
        path,
        contains,
        justification,
        line: sec.header_line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_and_allows() {
        let cfg = Config::parse(
            r#"
[[rule]]
id = "D4"
crates = ["sim", "switch"]

[[rule]]
id = "D6"
crates = ["sim"]
hint = "no unsafe, ever"

[[allow]]
rule = "D4"
path = "crates/switch/src/device.rs"
contains = "as_f64"
justification = "stats boundary: converts integer counters to floats after the run"
"#,
        )
        .unwrap();
        assert_eq!(cfg.rules.len(), 2);
        assert_eq!(cfg.rule("D4").unwrap().crates, vec!["sim", "switch"]);
        assert_eq!(
            cfg.rule("D6").unwrap().hint.as_deref(),
            Some("no unsafe, ever")
        );
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].contains.as_deref(), Some("as_f64"));
    }

    #[test]
    fn rejects_bad_configs() {
        let e = Config::parse("[[rule]]\nid = \"D99\"\ncrates = [\"sim\"]\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("D99"), "{e}");

        let e = Config::parse(
            "[[rule]]\nid = \"D4\"\ncrates = [\"sim\"]\n\n[[allow]]\nrule = \"D4\"\npath = \"x.rs\"\njustification = \"\"\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.msg.contains("justification"), "{e}");

        let e = Config::parse("[[allow]]\nrule = \"D4\"\npath = \"x.rs\"\njustification = \"y\"\n")
            .unwrap_err();
        assert!(e.msg.contains("not enabled"), "{e}");

        let e = Config::parse("[wat]\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }
}
