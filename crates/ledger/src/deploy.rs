//! The deployments the workloads and probes run against. Servers live in
//! this process — the benchmark measures the stack, not `fork`/`exec` — but
//! where a workload says tcp they sit behind real `tcp://127.0.0.1`
//! sockets, each on a transport of its own, exactly as separate processes
//! would.

use crate::counters::Counters;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use symbi_core::Stage;
use symbi_fabric::{Addr, Fabric, NetworkModel};
use symbi_margo::{MargoConfig, MargoInstance, RpcOptions};
use symbi_net::{fabric_over, NetConfig};
use symbi_services::kv::{BackendKind, BackendMode};
use symbi_services::sdskv::{SdskvClient, SdskvProvider, SdskvSpec};
use symbi_services::workload::{fnv64, RoutedTarget, SdskvTarget, WorkloadTarget};
use symbi_store::StatsSnapshot;

/// Servers of the *kv2* deployment.
pub const KV_SERVERS: usize = 2;
/// Databases per *kv2* server.
pub const KV_DATABASES: u32 = 2;
/// Handler execution streams per server, *kv2* and echo alike.
pub const HANDLER_STREAMS: usize = 4;
/// Pairs per `put_packed` during preload.
const PRELOAD_BATCH: usize = 1024;

/// The key the generators use for key index `idx` (symbi-load's format).
pub fn key_of(idx: u64) -> Vec<u8> {
    format!("k-{idx:012x}").into_bytes()
}

/// Where `RoutedTarget` over `SdskvTarget`s places a key: (server,
/// database). Both hashes are private to `symbi_services::workload`, so
/// this restates them; every KV workload reads a preloaded sample back
/// through the `RoutedTarget` and fails loudly if the two ever disagree.
pub fn place(key: &[u8]) -> (usize, u32) {
    let h = fnv64(key);
    (
        (h.rotate_left(17) % KV_SERVERS as u64) as usize,
        (h % KV_DATABASES as u64) as u32,
    )
}

pub struct KvServer {
    pub fabric: Fabric,
    pub margo: MargoInstance,
    pub provider: Arc<SdskvProvider>,
    /// The server's address as the client resolved it.
    pub addr: Addr,
    pub dir: PathBuf,
}

/// *kv2*: two SDSKV servers (4 handler ESs, 2 `ldb-disk` databases each,
/// `Stage::Disabled`, no telemetry) on `tcp://127.0.0.1:0`, and one client
/// instance holding one connection to each.
pub struct Kv2 {
    pub servers: Vec<KvServer>,
    pub client_fabric: Fabric,
    pub client: MargoInstance,
}

impl Kv2 {
    pub fn launch(dir: &Path) -> Kv2 {
        let client_fabric =
            fabric_over(NetConfig::client().with_node_id(9)).expect("start client transport");
        let client = MargoInstance::new(
            client_fabric.clone(),
            MargoConfig::client("ledger-client").with_stage(Stage::Disabled),
        );
        let servers = (0..KV_SERVERS)
            .map(|s| {
                let fabric =
                    fabric_over(NetConfig::listen("tcp://127.0.0.1:0").with_node_id(1 + s as u32))
                        .expect("start server transport");
                let margo = MargoInstance::new(
                    fabric.clone(),
                    MargoConfig::server(format!("ledger-kv-{s}"), HANDLER_STREAMS)
                        .with_stage(Stage::Disabled),
                );
                let server_dir = dir.join(format!("server-{s}"));
                let provider = SdskvProvider::attach(
                    &margo,
                    SdskvSpec {
                        num_databases: KV_DATABASES as usize,
                        backend: BackendKind::LdbDisk,
                        mode: BackendMode::Durable(server_dir.clone()),
                        ..SdskvSpec::default()
                    },
                );
                let url = fabric.listen_url().expect("server listens");
                let addr = client_fabric.lookup(&url).expect("resolve server url");
                KvServer {
                    fabric,
                    margo,
                    provider,
                    addr,
                    dir: server_dir,
                }
            })
            .collect();
        Kv2 {
            servers,
            client_fabric,
            client,
        }
    }

    pub fn sdskv(&self, server: usize) -> SdskvClient {
        SdskvClient::new(self.client.clone(), self.servers[server].addr)
    }

    /// The client face the open loops drive.
    pub fn target(&self) -> RoutedTarget {
        RoutedTarget::new(
            (0..KV_SERVERS)
                .map(|s| {
                    Box::new(SdskvTarget::new(self.sdskv(s), KV_DATABASES))
                        as Box<dyn WorkloadTarget>
                })
                .collect(),
        )
    }

    /// Store `value_of(idx)` under key `idx` for `idx < keys` with packed
    /// puts, then flush every database.
    pub fn preload(&self, keys: u64, value_of: impl Fn(u64) -> Vec<u8>) {
        let mut groups: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
            vec![Vec::new(); KV_SERVERS * KV_DATABASES as usize];
        for idx in 0..keys {
            let key = key_of(idx);
            let (s, db) = place(&key);
            groups[s * KV_DATABASES as usize + db as usize].push((key, value_of(idx)));
        }
        for (g, pairs) in groups.iter().enumerate() {
            let (s, db) = (
                g / KV_DATABASES as usize,
                (g % KV_DATABASES as usize) as u32,
            );
            let client = self.sdskv(s);
            for chunk in pairs.chunks(PRELOAD_BATCH) {
                client.put_packed(db, chunk).expect("preload put_packed");
            }
            client.flush(db).expect("preload flush");
        }
    }

    /// Engine counters summed over every database of every server.
    fn store_stats(&self) -> StatsSnapshot {
        let mut agg = StatsSnapshot::default();
        for server in &self.servers {
            for db in 0..KV_DATABASES as usize {
                if let Some(s) = server.provider.db(db).and_then(|d| d.store_stats()) {
                    agg.merge(&s);
                }
            }
        }
        agg
    }

    /// A reading of every counter the deployment keeps: all three
    /// transports, both handler pools and admission gates, every store.
    pub fn counters(&self) -> Counters {
        let fabrics: Vec<&Fabric> = std::iter::once(&self.client_fabric)
            .chain(self.servers.iter().map(|s| &s.fabric))
            .collect();
        let margos: Vec<&MargoInstance> = self.servers.iter().map(|s| &s.margo).collect();
        Counters::read(&fabrics, &margos, self.store_stats())
    }

    /// One blocking get per connection, so socket set-up is not timed.
    pub fn warm(&self) {
        for s in 0..KV_SERVERS {
            self.sdskv(s).get(0, b"warm").expect("warm-up get");
        }
    }

    pub fn finalize(self) {
        self.client.finalize();
        for s in self.servers {
            s.margo.finalize();
        }
    }
}

/// One echo server and one client, over loopback tcp or the in-process
/// fabric.
pub struct EchoPair {
    pub server_fabric: Fabric,
    pub client_fabric: Fabric,
    pub server: MargoInstance,
    pub client: MargoInstance,
    pub addr: Addr,
}

impl EchoPair {
    pub fn launch(tcp: bool, ofi_max_events: usize) -> EchoPair {
        let (server_fabric, client_fabric) = if tcp {
            (
                fabric_over(NetConfig::listen("tcp://127.0.0.1:0").with_node_id(21))
                    .expect("start echo server transport"),
                fabric_over(NetConfig::client().with_node_id(29))
                    .expect("start echo client transport"),
            )
        } else {
            let f = Fabric::new(NetworkModel::instant());
            (f.clone(), f)
        };
        let server = MargoInstance::new(
            server_fabric.clone(),
            MargoConfig::server("ledger-echo", HANDLER_STREAMS)
                .with_ofi_max_events(ofi_max_events)
                .with_stage(Stage::Disabled),
        );
        server.register_fn("echo", |_m, payload: Vec<u8>| {
            Ok::<Vec<u8>, String>(payload)
        });
        let client = MargoInstance::new(
            client_fabric.clone(),
            MargoConfig::client("ledger-echo-client")
                .with_ofi_max_events(ofi_max_events)
                .with_stage(Stage::Disabled),
        );
        let addr = match server_fabric.listen_url() {
            Some(url) => client_fabric.lookup(&url).expect("resolve echo server"),
            None => server.addr(),
        };
        let pair = EchoPair {
            server_fabric,
            client_fabric,
            server,
            client,
            addr,
        };
        pair.echo(&[0u8; 8]).expect("warm-up echo");
        pair
    }

    /// One blocking depth-1 round trip.
    pub fn echo(&self, body: &[u8]) -> Result<Vec<u8>, symbi_margo::MargoError> {
        self.client
            .forward_with(self.addr, "echo", &body.to_vec(), RpcOptions::default())
    }

    pub fn finalize(self) {
        self.client.finalize();
        self.server.finalize();
    }
}
