use crate::opts::{parse_coords, Opts};
use crate::reader::{explained, Reader};
use crate::CmdResult;
use pr_geom::Point;
use pr_tree::QueryScratch;
use std::io::Write;

pub(crate) fn cmd_knn(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let path = opts.path("FILE")?;
    let point = opts.require("point", "X,Y")?;
    let [x, y] = parse_coords::<2>(point, "--point")?;
    // An infinite window side is a half-open query; an infinite point
    // is at distance inf from everything, so "nearest" means nothing.
    if !(x.is_finite() && y.is_finite()) {
        return Err(format!("--point: '{point}' is not a finite point").into());
    }
    let k: usize = opts.num("k", 5)?;

    let reader = Reader::open(path, opts)?;
    let mut scratch = QueryScratch::new();
    let mut neighbors = Vec::new();
    let (stats, knn_ms, explain) = explained(opts, out, "knn", &reader, || {
        reader.knn(&Point::new([x, y]), k, &mut scratch, &mut neighbors)
    })?;
    explain?;
    writeln!(out, "{} nearest to ({x}, {y}):", neighbors.len())?;
    for (item, dist) in &neighbors {
        writeln!(
            out,
            "  id {:>8}  dist {dist:.6}  rect {:?}",
            item.id, item.rect
        )?;
    }
    writeln!(
        out,
        "knn I/O: {} leaves visited, {} device reads ({knn_ms:.1} ms)",
        stats.leaves_visited, stats.device_reads,
    )?;
    Ok(())
}
