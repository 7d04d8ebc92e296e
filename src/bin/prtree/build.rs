use crate::opts::{generate, parse_loader, tree_params, Opts};
use crate::CmdResult;
use pr_em::{BlockDevice, MemDevice};
use pr_store::Store;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn cmd_build(opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let file = opts.require("out", "FILE")?;
    let data = opts.get("data").unwrap_or("uniform");
    let n: u32 = opts.num("n", 100_000)?;
    let seed: u64 = opts.num("seed", 42)?;
    let kind = parse_loader(opts.get("loader").unwrap_or("PR"))?;
    let params = tree_params(opts)?;

    let t0 = Instant::now();
    let items = generate(data, n, seed)?;
    let gen_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = kind.loader::<2>().load(dev, params, items)?;
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let path = PathBuf::from(file);
    let mut store = Store::create::<2>(&path, params)?;
    store.save(&tree)?;
    let save_s = t0.elapsed().as_secs_f64();
    let bytes = store.file_len().unwrap_or(0);

    writeln!(
        out,
        "built {} ({data}, n={n}, seed={seed}) in {build_s:.2}s (+{gen_s:.2}s data gen)",
        kind.name()
    )?;
    writeln!(
        out,
        "committed epoch {} to {}: {} pages of {} bytes ({bytes} bytes on disk) in {save_s:.2}s",
        store.superblock().epoch,
        path.display(),
        store.superblock().num_pages,
        store.block_size(),
    )?;
    writeln!(
        out,
        "tree: {} items, height {}, root level {}",
        tree.len(),
        tree.height(),
        tree.root_level()
    )?;
    Ok(())
}
