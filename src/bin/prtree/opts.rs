use crate::CmdResult;
use pr_data::{size_dataset, uniform_points, TigerProfile};
use pr_geom::{Item, Rect};
use pr_live::{Durability, LiveIndex, LiveOptions};
use pr_store::ReadPath;
use pr_tree::bulk::LoaderKind;
use pr_tree::TreeParams;
use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::str::FromStr;

/// One flag a command accepts: `--name VALUE`, or a bare `--name`.
#[derive(Clone, Copy)]
pub(crate) enum Flag {
    Value(&'static str),
    Bool(&'static str),
}
use Flag::{Bool, Value};

impl Flag {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Value(name) | Bool(name) => name,
        }
    }
}

/// A subcommand: its name, its handler and every flag it accepts. The
/// handler writes its report to `out`, the locked stdout.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    pub(crate) run: fn(&Opts, &mut dyn Write) -> CmdResult,
    pub(crate) flags: &'static [&'static [Flag]],
}

/// A command's arguments: positionals plus `--flag [value]` pairs, each
/// flag checked against the command's row in `COMMANDS`.
pub(crate) struct Opts {
    cmd: &'static str,
    pub(crate) positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    pub(crate) fn parse(cmd: &Command, args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            cmd: cmd.name,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                opts.positional.push(arg.clone());
                continue;
            };
            let flag = cmd
                .flags
                .iter()
                .flat_map(|set| set.iter())
                .find(|f| f.name() == name)
                .ok_or_else(|| format!("unknown option --{name}"))?;
            let value = match flag {
                Bool(_) => None,
                Value(_) => Some(
                    args.next()
                        .ok_or_else(|| format!("--{name} expects a value"))?
                        .clone(),
                ),
            };
            opts.flags.push((name.to_string(), value));
        }
        Ok(opts)
    }

    /// The flag's value; the last one wins when it is repeated.
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn require(&self, name: &str, what: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("{} requires --{name} {what}", self.cmd))
    }

    /// The one positional argument (`what` names it in the error).
    pub(crate) fn path(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [path] => Ok(path),
            _ => Err(format!("{} expects exactly one {what} argument", self.cmd)),
        }
    }

    pub(crate) fn opt_num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer"))
            })
            .transpose()
    }

    pub(crate) fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    pub(crate) fn num_min<T: FromStr + PartialOrd + Display>(
        &self,
        name: &str,
        default: T,
        min: T,
    ) -> Result<T, String> {
        match self.num(name, default) {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("--{name} expects an integer >= {min}")),
        }
    }
}

pub(crate) fn parse_coords<const N: usize>(s: &str, what: &str) -> Result<[f64; N], String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != N {
        return Err(format!("{what} expects {N} comma-separated numbers"));
    }
    let mut out = [0.0; N];
    for (o, p) in out.iter_mut().zip(&parts) {
        // `f64::from_str` takes "nan"; no comparison against it holds,
        // so a NaN side would silently match nothing.
        *o = p
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|v| !v.is_nan())
            .ok_or_else(|| format!("{what}: '{p}' is not a number"))?;
    }
    Ok(out)
}

/// `--window X1,Y1,X2,Y2`, corners in either order.
pub(crate) fn window(opts: &Opts) -> Result<Rect<2>, String> {
    let [x1, y1, x2, y2] = parse_coords::<4>(opts.require("window", "X1,Y1,X2,Y2")?, "--window")?;
    Ok(Rect::xyxy(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2)))
}

pub(crate) fn generate(data: &str, n: u32, seed: u64) -> Result<Vec<Item<2>>, String> {
    // The TIGER-like profiles carry their own base seed; `--seed`
    // overrides it so different seeds really do give different roads.
    let tiger = |mut profile: TigerProfile| {
        profile.seed = seed;
        profile.generate(n, profile.regions)
    };
    match data {
        "uniform" => Ok(uniform_points(n, seed)),
        "size" => Ok(size_dataset(n, 0.01, seed)),
        "tiger-east" => Ok(tiger(TigerProfile::eastern())),
        "tiger-west" => Ok(tiger(TigerProfile::western())),
        other => Err(format!(
            "unknown dataset '{other}' (want uniform | size | tiger-east | tiger-west)"
        )),
    }
}

pub(crate) fn parse_loader(name: &str) -> Result<LoaderKind, String> {
    LoaderKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown loader '{name}' (want PR | H | H4 | TGS | STR)"))
}

/// `--cap C` entries per node, or the paper's 4 KB pages.
pub(crate) fn tree_params(opts: &Opts) -> Result<TreeParams, String> {
    Ok(if opts.has("cap") {
        TreeParams::with_cap::<2>(opts.num_min("cap", 2, 2)?)
    } else {
        TreeParams::paper_2d()
    })
}

/// `--durability fsync|async|async:BYTES`, or `default`.
pub(crate) fn durability(opts: &Opts, default: Durability) -> Result<Durability, String> {
    match opts.get("durability") {
        None => Ok(default),
        Some("fsync") => Ok(Durability::Fsync),
        Some("async") => Ok(Durability::Async {
            max_inflight_bytes: 8 << 20,
        }),
        Some(other) => other
            .strip_prefix("async:")
            .and_then(|b| b.parse::<usize>().ok())
            .filter(|&b| b >= 1)
            .map(|b| Durability::Async {
                max_inflight_bytes: b,
            })
            .ok_or_else(|| {
                format!("--durability expects fsync | async | async:BYTES, got '{other}'")
            }),
    }
}

pub(crate) fn read_path(opts: &Opts) -> ReadPath {
    if opts.has("paranoid") {
        ReadPath::Recheck
    } else {
        ReadPath::ZeroCopy
    }
}

/// How every command opens a live index: the defaults, changed only by
/// the flags the command accepts.
pub(crate) fn live_opts(opts: &Opts) -> Result<LiveOptions, String> {
    let d = LiveOptions::default();
    Ok(LiveOptions {
        buffer_cap: opts.num_min("buffer-cap", d.buffer_cap, 1)?,
        background_merge: !opts.has("inline-merge"),
        durability: durability(opts, d.durability)?,
        recheck_reads: opts.has("paranoid"),
    })
}

pub(crate) fn open_live(dir: &str, opts: &Opts) -> CmdResult<LiveIndex<2>> {
    Ok(LiveIndex::<2>::open(Path::new(dir), live_opts(opts)?)?)
}
