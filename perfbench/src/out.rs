//! One JSON object per stdout line: the worker's protocol to `run.py`.

use std::fmt::Write as _;
use std::io::Write as _;

#[derive(Default)]
pub struct Line(String);

impl Line {
    pub fn new(kind: &str) -> Line {
        let mut l = Line(String::from("{"));
        l.str("kind", kind);
        l
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{k}\":");
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Line {
        self.key(k);
        self.0.push('"');
        for c in v.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.0, "\\u{:04x}", c as u32);
                }
                c => self.0.push(c),
            }
        }
        self.0.push('"');
        self
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Line {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Line {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Line {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Line {
        self.key(k);
        self.0.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            let _ = write!(self.0, "{v:.4}");
        }
        self.0.push(']');
        self
    }

    /// Print the line and flush, so the supervisor sees it at once.
    pub fn emit(&mut self) {
        self.0.push('}');
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{}", self.0);
        let _ = out.flush();
    }
}
