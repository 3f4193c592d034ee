//! `hpnn` — command-line tool for the HPNN workflow.
//!
//! ```text
//! hpnn keygen [--seed N]
//! hpnn train   --key HEX --arch cnn1|cnn2|cnn3|resnet|mlp --dataset fashion|cifar10|svhn
//!              [--scale tiny|small|medium] [--epochs N] [--lr F] [--out FILE]
//! hpnn inspect --model FILE
//! hpnn eval    --model FILE --dataset fashion|cifar10|svhn [--key HEX] [--scale S]
//! hpnn attack  --model FILE --dataset fashion|cifar10|svhn --alpha F [--init stolen|random]
//! hpnn serve   --model FILE [--model FILE ...] [--key HEX] [--addr HOST:PORT]
//!              [--max-batch N] [--max-wait-us N] [--queue-cap N] [--max-inflight N]
//!              [--event-threads N] [--shards MIN..MAX]
//!              [--trace-out FILE]
//!              [--metrics-addr HOST:PORT] [--obs-tick-ms N] [--obs-history N]
//!              [--slo RULE ...] [--flight-dir DIR] [--flight-max-dumps N]
//!              [--stage CUTS] [--peer HOST:PORT ...] [--offload-all]
//! hpnn loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--model ID]
//!              [--mode keyed|keyless] [--rows N] [--depth N] [--deadline-us N]
//!              [--idle-hold-ms N] [--churn-every N] [--skew F]
//!              [--seed N] [--no-retry-busy] [--shutdown]
//! hpnn stats   [ADDR]                          one-shot STATS against a running server
//! hpnn top     [ADDR] [--once] [--interval-ms N]  live dashboard over a --metrics-addr listener
//! ```
//!
//! The tool drives the same library code as the experiment harness; it
//! exists so the locked-model life-cycle (generate key → train → publish →
//! deploy/eval → attack) can be exercised from a shell.

use std::fs;
use std::process::ExitCode;

use hpnn::attacks::{AttackInit, FineTuneAttack};
use hpnn::cluster::{ClusterBackend, CostModel};
use hpnn::core::{HpnnKey, HpnnTrainer, KeyVault, LayerPartition, LockedModel};
use hpnn::data::{Benchmark, Dataset, DatasetScale};
use hpnn::nn::{mlp, ArchKind, ImageDims, TrainConfig};
use hpnn::serve::{
    ClusterPlan, InferMode, LoadPattern, LoadgenConfig, ServeConfig, ServeRegistry, Server,
};
use hpnn::tensor::Rng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("keygen") => cmd_keygen(&args),
        Some("train") => cmd_train(&args),
        Some("inspect") => cmd_inspect(&args),
        Some("eval") => cmd_eval(&args),
        Some("attack") => cmd_attack(&args),
        Some("serve") => cmd_serve(&args),
        Some("loadgen") => cmd_loadgen(&args),
        Some("stats") => cmd_stats(&args),
        Some("top") => cmd_top(&args),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `hpnn help`)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn print_usage() {
    println!(
        "hpnn — Hardware Protected Neural Networks (DAC 2020 reproduction)\n\n\
         commands:\n\
         \x20 keygen  [--seed N]                          generate a random 256-bit HPNN key\n\
         \x20 train   --key HEX --arch A --dataset D      key-dependent training, writes a .hpnn container\n\
         \x20         [--scale S] [--epochs N] [--lr F] [--out FILE]\n\
         \x20 inspect --model FILE                        print a published container's metadata\n\
         \x20 eval    --model FILE --dataset D [--key HEX] evaluate with or without the key\n\
         \x20 attack  --model FILE --dataset D --alpha F  fine-tuning attack with a thief dataset\n\
         \x20         [--init stolen|random] [--epochs N] [--lr F]\n\
         \x20 serve   --model FILE [--model FILE ...]     batched TCP inference server (SHUTDOWN frame stops it)\n\
         \x20         [--key HEX] [--addr HOST:PORT] [--max-batch N] [--max-wait-us N] [--queue-cap N]\n\
         \x20         [--max-inflight N]                  per-connection pipelining window (protocol v2)\n\
         \x20         [--event-threads N]                 socket event-loop threads (0 = auto, default)\n\
         \x20         [--shards MIN..MAX]                 worker shards per model; a single N pins the count,\n\
         \x20                                             a range lets the controller scale adaptively\n\
         \x20         [--trace-out FILE]                  write a Chrome/Perfetto trace on shutdown\n\
         \x20         [--metrics-addr HOST:PORT]          HTTP exposition: /metrics /healthz /readyz /series\n\
         \x20         [--obs-tick-ms N] [--obs-history N] collector tick (default 1000) and ring depth (120)\n\
         \x20         [--slo RULE]                        SLO watchdog rule, repeatable, e.g. \"p99_ms > 50 for 3\"\n\
         \x20                                             (metrics: p50_ms p95_ms p99_ms queue_p99_ms error_rate\n\
         \x20                                             busy_rate worker_panics keyless_share trusted_refused rps)\n\
         \x20         [--flight-dir DIR]                  dump the trace rings there on SLO breach\n\
         \x20         [--flight-max-dumps N]              breach-dump budget per run (default 4)\n\
         \x20         [--stage CUTS]                      partition at layer indices, e.g. `--stage 3,7`\n\
         \x20                                             (without --peer: serve stages as a worker node)\n\
         \x20         [--peer HOST:PORT]                  head role: offload stages to workers (repeatable)\n\
         \x20         [--offload-all]                     ignore the cost model; ship every offloadable stage\n\
         \x20 loadgen [--addr HOST:PORT] [--clients N]    closed-loop load generator against a running server\n\
         \x20         [--requests N] [--model ID] [--mode keyed|keyless] [--rows N] [--seed N] [--shutdown]\n\
         \x20         [--depth N]                         requests kept in flight per connection (default 1)\n\
         \x20         [--idle-hold-ms N]                  hold every connection idle for N ms before the run\n\
         \x20         [--churn-every N]                   reconnect each client after every N requests\n\
         \x20         [--skew F]                          send fraction F to --model, the rest to cold tenants\n\
         \x20         [--sample-interval-ms N]            server-side stats sampling bucket (default 1000, 0 off)\n\
         \x20 stats   [ADDR]                              one-shot STATS snapshot of a running server (default\n\
         \x20                                             127.0.0.1:7433), printed as loadgen's stage tables\n\
         \x20 top     [ADDR] [--once] [--interval-ms N]   live dashboard over a server's --metrics-addr listener\n\
         \x20                                             (default 127.0.0.1:9434); --once prints a single frame\n\n\
         datasets: fashion | cifar10 | svhn   architectures: cnn1 | cnn2 | cnn3 | resnet | mlp\n\
         scales:   tiny | small | medium      (HPNN_DATA_DIR selects real data files)"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1).cloned())
}

/// Every value of a repeatable flag, in order.
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

/// Whether a bare (valueless) switch is present.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_dataset(
    args: &[String],
) -> Result<(Benchmark, Dataset, DatasetScale), Box<dyn std::error::Error>> {
    let benchmark = match flag(args, "--dataset").as_deref() {
        Some("fashion") | Some("fashion-mnist") => Benchmark::FashionMnist,
        Some("cifar10") | Some("cifar-10") => Benchmark::Cifar10,
        Some("svhn") => Benchmark::Svhn,
        Some(other) => return Err(format!("unknown dataset `{other}`").into()),
        None => return Err("missing --dataset".into()),
    };
    let scale = match flag(args, "--scale").as_deref() {
        Some("tiny") => DatasetScale::TINY,
        Some("small") | None => DatasetScale::SMALL,
        Some("medium") => DatasetScale::MEDIUM,
        Some("paper") => DatasetScale::PAPER,
        Some(other) => return Err(format!("unknown scale `{other}`").into()),
    };
    let dir = std::env::var_os("HPNN_DATA_DIR").map(std::path::PathBuf::from);
    let dataset = benchmark.load_or_synthesize(dir.as_deref(), scale);
    Ok((benchmark, dataset, scale))
}

fn parse_key(args: &[String]) -> Result<HpnnKey, Box<dyn std::error::Error>> {
    match flag(args, "--key") {
        Some(hex) => Ok(HpnnKey::from_hex(&hex)?),
        None => Err("missing --key HEX (use `hpnn keygen`)".into()),
    }
}

fn cmd_keygen(args: &[String]) -> CliResult {
    let seed: u64 = match flag(args, "--seed") {
        Some(s) => s.parse()?,
        None => {
            // Derive a seed from the OS when none is given; determinism is
            // only required when the user pins --seed.
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)?
                .as_nanos() as u64
        }
    };
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    println!("{key}");
    Ok(())
}

fn cmd_train(args: &[String]) -> CliResult {
    let key = parse_key(args)?;
    let (_benchmark, dataset, _) = parse_dataset(args)?;
    let dims = ImageDims::new(dataset.shape.c, dataset.shape.h, dataset.shape.w);
    let spec = match flag(args, "--arch").as_deref() {
        Some("cnn1") => ArchKind::Cnn1.build_spec(dims, dataset.classes, 0.5)?,
        Some("cnn2") => ArchKind::Cnn2.build_spec(dims, dataset.classes, 0.5)?,
        Some("cnn3") => ArchKind::Cnn3.build_spec(dims, dataset.classes, 0.5)?,
        Some("resnet") => ArchKind::ResNet.build_spec(dims, dataset.classes, 0.5)?,
        Some("mlp") | None => mlp(dataset.shape.volume(), &[64], dataset.classes),
        Some(other) => return Err(format!("unknown architecture `{other}`").into()),
    };
    let epochs: usize = flag(args, "--epochs")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(12);
    let lr: f32 = flag(args, "--lr")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0.02);
    let out = flag(args, "--out").unwrap_or_else(|| "model.hpnn".to_string());

    eprintln!(
        "training on {} ({} train / {} test), {} lockable neurons, {epochs} epochs @ lr {lr}",
        dataset.name,
        dataset.train_len(),
        dataset.test_len(),
        spec.lockable_neurons()
    );
    let artifacts = HpnnTrainer::new(spec, key)
        .with_config(TrainConfig::default().with_epochs(epochs).with_lr(lr))
        .with_seed(
            flag(args, "--seed")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(0),
        )
        .train(&dataset)?;
    println!(
        "accuracy with key: {:.2}% | without key: {:.2}% | drop: {:.2} points",
        artifacts.accuracy_with_key * 100.0,
        artifacts.accuracy_without_key * 100.0,
        artifacts.accuracy_drop_percent()
    );
    fs::write(&out, artifacts.model.to_bytes())?;
    println!("published container written to {out}");
    Ok(())
}

fn load_model(args: &[String]) -> Result<LockedModel, Box<dyn std::error::Error>> {
    let path = flag(args, "--model").ok_or("missing --model FILE")?;
    let bytes = fs::read(&path)?;
    Ok(LockedModel::from_bytes(bytes.as_slice())?)
}

fn cmd_inspect(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let meta = model.metadata();
    println!("name:     {}", meta.name);
    println!("dataset:  {}", meta.dataset);
    println!("notes:    {}", meta.notes);
    let spec = model.spec();
    let census = spec.layer_census();
    println!(
        "arch:     {} layers ({} conv, {} pool, {} activation, {} fc, {} residual)",
        spec.layers.len(),
        census.conv,
        census.pool,
        census.relu,
        census.fc,
        census.residual
    );
    println!("inputs:   {} features", spec.in_features);
    println!("outputs:  {} classes", spec.out_features());
    println!("locked:   {} neurons", spec.lockable_neurons());
    println!("weights:  {} scalars", model.weight_count());
    println!(
        "schedule: {:?} (seed {})",
        model.schedule().kind(),
        model.schedule().seed()
    );
    Ok(())
}

fn cmd_eval(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let (_, dataset, _) = parse_dataset(args)?;
    let mut net = match flag(args, "--key") {
        Some(hex) => {
            let key = HpnnKey::from_hex(&hex)?;
            let vault = KeyVault::provision(key, "cli-device");
            model.deploy_trusted(&vault)?
        }
        None => {
            eprintln!("no --key given: evaluating the stolen (unauthorized) path");
            model.deploy_stolen()?
        }
    };
    let acc = net.accuracy(&dataset.test_inputs, &dataset.test_labels);
    println!("test accuracy: {:.2}%", acc * 100.0);
    Ok(())
}

fn cmd_attack(args: &[String]) -> CliResult {
    let model = load_model(args)?;
    let (_, dataset, _) = parse_dataset(args)?;
    let alpha: f32 = flag(args, "--alpha").ok_or("missing --alpha F")?.parse()?;
    let init = match flag(args, "--init").as_deref() {
        Some("random") => AttackInit::Random,
        Some("stolen") | None => AttackInit::Stolen,
        Some(other) => return Err(format!("unknown init `{other}`").into()),
    };
    let epochs: usize = flag(args, "--epochs")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(10);
    let lr: f32 = flag(args, "--lr")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(0.02);

    let result = FineTuneAttack::new(init, alpha)
        .with_config(TrainConfig::default().with_epochs(epochs).with_lr(lr))
        .with_seed(
            flag(args, "--seed")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(0),
        )
        .run(&model, &dataset)?;
    println!(
        "{init} with alpha = {:.1}% ({} thief samples)",
        alpha * 100.0,
        result.thief_size
    );
    println!(
        "  initial accuracy: {:.2}%",
        result.initial_accuracy * 100.0
    );
    println!("  final accuracy:   {:.2}%", result.final_accuracy * 100.0);
    println!("  best accuracy:    {:.2}%", result.best_accuracy * 100.0);
    Ok(())
}

/// Parses `--shards` as a pinned `N` or an adaptive `MIN..MAX` /
/// `MIN..=MAX` range (both forms inclusive).
fn parse_shards(spec: &str) -> Result<std::ops::RangeInclusive<usize>, Box<dyn std::error::Error>> {
    let bad = || format!("bad --shards `{spec}` (expected N or MIN..MAX)");
    match spec.split_once("..") {
        None => {
            let n: usize = spec.parse().map_err(|_| bad())?;
            Ok(n..=n)
        }
        Some((lo, hi)) => {
            let hi = hi.strip_prefix('=').unwrap_or(hi);
            Ok(lo.parse().map_err(|_| bad())?..=hi.parse().map_err(|_| bad())?)
        }
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    let paths = flag_all(args, "--model");
    if paths.is_empty() {
        return Err("missing --model FILE (repeatable)".into());
    }
    let vault = flag(args, "--key")
        .map(|hex| HpnnKey::from_hex(&hex))
        .transpose()?
        .map(|key| KeyVault::provision(key, "hpnn-serve"));

    // One builder carries every serve knob — batching, sharding, event
    // loop, and cluster role — so cross-field mistakes fail here, before
    // any socket is bound.
    let mut builder = ServeConfig::builder();
    if let Some(v) = flag(args, "--max-batch") {
        builder = builder.max_batch(v.parse()?);
    }
    if let Some(v) = flag(args, "--max-wait-us") {
        builder = builder.max_wait(std::time::Duration::from_micros(v.parse()?));
    }
    if let Some(v) = flag(args, "--queue-cap") {
        builder = builder.queue_cap(v.parse()?);
    }
    if let Some(v) = flag(args, "--max-inflight") {
        builder = builder.max_inflight_per_conn(v.parse()?);
    }
    if let Some(v) = flag(args, "--event-threads") {
        builder = builder.event_threads(v.parse()?);
    }
    if let Some(v) = flag(args, "--shards") {
        builder = builder.shards(parse_shards(&v)?);
    }
    if let Some(cuts) = flag(args, "--stage") {
        builder = builder.stage_cuts(cuts);
    }
    if let Some(addr) = flag(args, "--metrics-addr") {
        builder = builder.metrics_addr(addr);
    }
    if let Some(v) = flag(args, "--obs-tick-ms") {
        builder = builder.obs_tick(std::time::Duration::from_millis(v.parse()?));
    }
    if let Some(v) = flag(args, "--obs-history") {
        builder = builder.obs_history(v.parse()?);
    }
    for rule in flag_all(args, "--slo") {
        builder = builder.slo_rule(rule);
    }
    if let Some(dir) = flag(args, "--flight-dir") {
        builder = builder.flight_dir(dir);
    }
    if let Some(v) = flag(args, "--flight-max-dumps") {
        builder = builder.flight_max_dumps(v.parse()?);
    }
    let mut peers = Vec::new();
    for p in flag_all(args, "--peer") {
        peers.push(
            p.parse::<std::net::SocketAddr>()
                .map_err(|e| format!("bad --peer `{p}`: {e}"))?,
        );
    }
    if !peers.is_empty() {
        builder = builder.peers(peers);
    }
    let cfg = builder.offload_all(switch(args, "--offload-all")).build()?;

    let cost = if cfg.cluster.offload_all {
        CostModel::offload_everything()
    } else {
        CostModel::default()
    };
    let mut registry = ServeRegistry::new();
    for path in &paths {
        let bytes = fs::read(path)?;
        let model = LockedModel::from_bytes(bytes.as_slice())?;
        let name = if model.metadata().name.is_empty() {
            path.clone()
        } else {
            model.metadata().name.clone()
        };
        let partition = cfg
            .cluster
            .stage_cuts
            .as_deref()
            .map(|cuts| LayerPartition::parse_cuts(model.spec(), cuts))
            .transpose()?
            .map(std::sync::Arc::new);
        let id = registry.add(name.clone(), model, vault.clone());
        eprintln!("model {id}: {name} ({path})");
        if let Some(partition) = partition {
            let trusted = partition
                .stages()
                .iter()
                .filter(|s| s.trusted_required)
                .count();
            if cfg.cluster.peers.is_empty() {
                // Worker role: serve individual stages, never forward.
                eprintln!(
                    "  worker: {} stages ({trusted} trusted-only)",
                    partition.len()
                );
                registry.set_plan(id, ClusterPlan::worker(partition));
            } else {
                let backend = std::sync::Arc::new(ClusterBackend::new(
                    &partition,
                    cfg.cluster.peers.clone(),
                    &cost,
                ));
                eprintln!(
                    "  head: {} stages ({trusted} trusted-only), {} offloaded to {} peer(s)",
                    partition.len(),
                    backend.route().offloaded(),
                    cfg.cluster.peers.len()
                );
                registry.set_plan(id, ClusterPlan::head(partition, backend));
            }
        }
    }
    let trace_out = flag(args, "--trace-out");
    if trace_out.is_some() {
        // The flag implies tracing even without HPNN_TRACE=1 in the
        // environment; a trace file full of nothing helps nobody.
        hpnn::trace::set_enabled(true);
    }
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let shard_note = if cfg.max_shards > 1 {
        format!(
            ", {}..={} shards per model (least-loaded)",
            cfg.min_shards, cfg.max_shards
        )
    } else {
        String::new()
    };
    // The observer needs shared handles into the server (stats source and
    // readiness), so the server lives behind an Arc from here on.
    let obs_role = cfg.obs.clone();
    let server = std::sync::Arc::new(Server::start(registry, cfg, addr.as_str())?);
    println!(
        "listening on {}{shard_note} (send a SHUTDOWN frame to stop)",
        server.local_addr()
    );
    let observer = if obs_role.enabled() {
        let opts = hpnn::obs::ObsOptions::from_role(&obs_role)?;
        let source = {
            let s = std::sync::Arc::clone(&server);
            std::sync::Arc::new(move || s.metrics())
        };
        let ready = {
            let s = std::sync::Arc::clone(&server);
            std::sync::Arc::new(move || s.is_serving())
        };
        let obs = hpnn::obs::Observer::start(opts, source, ready)?;
        if let Some(maddr) = obs.metrics_addr() {
            println!("metrics on {maddr} (GET /metrics /healthz /readyz /series)");
        }
        if !obs_role.slo_rules.is_empty() {
            eprintln!(
                "slo watchdog: {} rule(s), tick {} ms{}",
                obs_role.slo_rules.len(),
                obs_role.tick.as_millis(),
                obs_role
                    .flight_dir
                    .as_deref()
                    .map(|d| format!(", flight dumps to {d}"))
                    .unwrap_or_default()
            );
        }
        Some(obs)
    } else {
        None
    };
    server.join();
    if let Some(mut obs) = observer {
        let state = std::sync::Arc::clone(obs.state());
        obs.shutdown();
        if state.breaches_total() > 0 {
            eprintln!(
                "slo: {} breach(es), {} flight dump(s) written",
                state.breaches_total(),
                state.dumps_written()
            );
        }
    }
    let stats = server.metrics();
    eprintln!(
        "served {} requests ({} rows) in {} batches; {} busy, {} expired, {} protocol errors",
        stats.replies_ok,
        stats.rows,
        stats.batches,
        stats.busy,
        stats.expired,
        stats.protocol_errors
    );
    if stats.fwd_sent > 0 || stats.fwd_recv > 0 {
        eprintln!(
            "cluster: {} stage forwards sent, {} received",
            stats.fwd_sent, stats.fwd_recv
        );
    }
    if stats.shard_scale_ups > 0 || stats.shard_scale_downs > 0 {
        eprintln!(
            "shards: {} scale-ups, {} scale-downs",
            stats.shard_scale_ups, stats.shard_scale_downs
        );
    }
    if let Some(path) = trace_out {
        let trace = hpnn::trace::take();
        let (events, dropped) = (trace.events.len(), trace.dropped);
        fs::write(&path, trace.to_chrome_json())?;
        eprintln!(
            "trace: {events} events ({dropped} dropped) written to {path} \
             (open in Perfetto or chrome://tracing)"
        );
    }
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> CliResult {
    let mut cfg = LoadgenConfig::default();
    if let Some(v) = flag(args, "--addr") {
        cfg.addr = v;
    }
    if let Some(v) = flag(args, "--clients") {
        cfg.clients = v.parse()?;
    }
    if let Some(v) = flag(args, "--requests") {
        cfg.requests_per_client = v.parse()?;
    }
    if let Some(v) = flag(args, "--model") {
        cfg.model = v.parse()?;
    }
    cfg.mode = match flag(args, "--mode").as_deref() {
        Some("keyless") => InferMode::Keyless,
        Some("keyed") | None => InferMode::Keyed,
        Some(other) => return Err(format!("unknown mode `{other}`").into()),
    };
    if let Some(v) = flag(args, "--rows") {
        cfg.rows_per_request = v.parse()?;
    }
    if let Some(v) = flag(args, "--depth") {
        cfg.depth = v.parse()?;
    }
    if let Some(v) = flag(args, "--deadline-us") {
        cfg.deadline_us = v.parse()?;
    }
    if let Some(v) = flag(args, "--seed") {
        cfg.seed = v.parse()?;
    }
    if let Some(v) = flag(args, "--skew") {
        cfg.hot_fraction = Some(v.parse()?);
    }
    if let Some(v) = flag(args, "--sample-interval-ms") {
        cfg.sample_interval = std::time::Duration::from_millis(v.parse()?);
    }
    cfg.retry_busy = !switch(args, "--no-retry-busy");
    match (flag(args, "--idle-hold-ms"), flag(args, "--churn-every")) {
        (Some(_), Some(_)) => {
            return Err("--idle-hold-ms and --churn-every are mutually exclusive".into());
        }
        (Some(ms), None) => {
            cfg.pattern = LoadPattern::Idle(std::time::Duration::from_millis(ms.parse()?));
        }
        (None, Some(n)) => {
            cfg.pattern = LoadPattern::Churn(n.parse()?);
        }
        (None, None) => {}
    }
    let report = hpnn::serve::loadgen::run(&cfg).map_err(|e| e.to_string())?;
    println!(
        "{} clients x {} requests: {} ok, {} busy, {} expired, {} errors in {:.3}s",
        cfg.clients,
        cfg.requests_per_client,
        report.ok,
        report.busy,
        report.expired,
        report.errors,
        report.elapsed.as_secs_f64()
    );
    println!(
        "throughput: {:.1} req/s ({:.1} rows/s)",
        report.throughput_rps(),
        report.throughput_rows_per_sec()
    );
    if let Some((min, mean, max)) = report.interval_rps() {
        println!(
            "per-interval throughput ({} x {} ms, server clock): min {min:.1} / mean {mean:.1} / max {max:.1} req/s",
            report.intervals.len(),
            cfg.sample_interval.as_millis()
        );
    }
    if report.ok_by_model.len() > 1 {
        println!("per-model breakdown (skewed workload):");
        for (model, ok) in &report.ok_by_model {
            println!(
                "  model {model}: {ok} ok ({:.1} req/s)",
                report.throughput_rps_for(*model)
            );
        }
    }
    println!(
        "latency: mean {:.1} us, p50 <= {:.1} us, p99 <= {:.1} us",
        report.latency.mean_ns() / 1_000.0,
        report.latency.quantile_upper_ns(0.50) as f64 / 1_000.0,
        report.latency.quantile_upper_ns(0.99) as f64 / 1_000.0
    );
    if let Some(rps) = report.server_rps() {
        println!("server:  {rps:.1} replies/s over the server's own uptime clock");
    }
    if let Some(stats) = &report.server_after {
        if stats.fwd_sent > 0 || stats.fwd_recv > 0 {
            println!(
                "cluster: {} stage forwards sent, {} received",
                stats.fwd_sent, stats.fwd_recv
            );
        }
    }
    if let Some(stats) = &report.server_after {
        print_server_stats(stats);
    }
    if switch(args, "--shutdown") {
        let mut admin =
            hpnn::serve::Session::connect(cfg.addr.as_str()).map_err(|e| e.to_string())?;
        admin.shutdown().map_err(|e| e.to_string())?;
        println!("server shut down");
    }
    Ok(())
}

/// The server-side stats tables `loadgen` and `stats` both print: per-stage
/// latency quantiles, then per-shard activity when the server runs shards.
fn print_server_stats(stats: &hpnn::serve::StatsSnapshot) {
    println!("per-stage server latency (us, interpolated):");
    println!(
        "  {:<12} {:>10} {:>12} {:>12} {:>12}",
        "stage", "count", "p50", "p95", "p99"
    );
    for (name, h) in stats.stages() {
        println!(
            "  {:<12} {:>10} {:>12.1} {:>12.1} {:>12.1}",
            name,
            h.count,
            h.quantile_upper_ns(0.50) as f64 / 1_000.0,
            h.quantile_upper_ns(0.95) as f64 / 1_000.0,
            h.quantile_upper_ns(0.99) as f64 / 1_000.0
        );
    }
    if !stats.shards.is_empty() {
        println!("per-shard server latency (us):");
        println!(
            "  {:<6} {:<6} {:<7} {:>10} {:>14} {:>16}",
            "model", "shard", "state", "forwards", "fwd p50", "queue-wait p50"
        );
        for s in &stats.shards {
            println!(
                "  {:<6} {:<6} {:<7} {:>10} {:>14.1} {:>16.1}",
                s.model,
                s.shard,
                if s.active { "active" } else { "idle" },
                s.forward.count,
                s.forward.quantile_upper_ns(0.50) as f64 / 1_000.0,
                s.queue_wait.quantile_upper_ns(0.50) as f64 / 1_000.0
            );
        }
        if stats.shard_scale_ups > 0 || stats.shard_scale_downs > 0 {
            println!(
                "  adaptive controller: {} scale-ups, {} scale-downs",
                stats.shard_scale_ups, stats.shard_scale_downs
            );
        }
    }
}

/// Optional positional address: `hpnn stats 127.0.0.1:7433`. Anything
/// starting with `--` is a flag, not an address.
fn positional_addr(args: &[String], default: &str) -> String {
    args.get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| flag(args, "--addr").unwrap_or_else(|| default.to_string()))
}

fn cmd_stats(args: &[String]) -> CliResult {
    let addr = positional_addr(args, "127.0.0.1:7433");
    let mut client = hpnn::serve::Session::connect(addr.as_str()).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let uptime = stats.uptime_ns as f64 / 1e9;
    println!(
        "server {addr}: up {uptime:.1}s, {} connections, {} open",
        stats.connections, stats.open_connections
    );
    println!(
        "requests: {} admitted ({} keyed, {} keyless), {} ok, {} busy, {} expired, {} protocol errors",
        stats.requests,
        stats.keyed_requests,
        stats.keyless_requests,
        stats.replies_ok,
        stats.busy,
        stats.expired,
        stats.protocol_errors
    );
    println!(
        "work: {} rows in {} batches ({:.1} rows/batch), {} inflight, {} worker panics, {} trusted-stage refusals",
        stats.rows,
        stats.batches,
        stats.mean_batch_rows(),
        stats.inflight,
        stats.worker_panics,
        stats.trusted_stage_refused
    );
    if uptime > 0.0 {
        println!(
            "rates: {:.1} req/s admitted, {:.1} replies/s over the server's uptime",
            stats.requests as f64 / uptime,
            stats.replies_ok as f64 / uptime
        );
    }
    print_server_stats(&stats);
    Ok(())
}

fn cmd_top(args: &[String]) -> CliResult {
    let cfg = hpnn::obs::top::TopConfig {
        addr: positional_addr(args, "127.0.0.1:9434"),
        once: switch(args, "--once"),
        interval: std::time::Duration::from_millis(
            flag(args, "--interval-ms")
                .map(|v| v.parse())
                .transpose()?
                .unwrap_or(2000),
        ),
    };
    hpnn::obs::top::run(&cfg).map_err(|e| e.into())
}
