//! A [`Dispatcher`] behind the shared line-protocol front end
//! ([`LineServer`]), so [`ServiceClient`] works against a dispatcher
//! unchanged (`submit`/`stream_job`/`cancel`/`ping`/`metrics`/
//! `shutdown_server`). `secddr-dispatch` is the binary.
//!
//! One command is dispatcher-specific: `workers` reports per-worker
//! liveness and load. The single-service `cache_stats`/`series`
//! commands answer with an error (the dispatcher has no trace cache or
//! series store of its own — ask a worker).
//!
//! [`ServiceClient`]: secddr_service::ServiceClient

use secddr_service::net::{error_json, job_arg, Accepted, EventStream, LineHandler, LineServer};
use secddr_service::{JobSpec, Json};

use crate::dispatch::Dispatcher;

/// The TCP front end over one [`Dispatcher`] (`secddr-dispatch`).
pub type FleetServer = LineServer<Dispatcher>;

impl LineHandler for Dispatcher {
    fn submit(&self, spec: JobSpec) -> Result<Accepted, String> {
        let handle = Dispatcher::submit(self, &spec)?;
        let (job, cells) = (handle.id, handle.cells);
        let (ready, rest) = handle.take_ready();
        // Dropping the stream early keeps the job: its cells still fill
        // the result store.
        let live = rest
            .map(|handle| Box::new(std::iter::from_fn(move || handle.next_event())) as EventStream);
        Ok(Accepted {
            job,
            cells,
            ready,
            live,
        })
    }

    fn cancel(&self, job: u64) -> bool {
        Dispatcher::cancel(self, job)
    }

    fn drain(&self) {
        Dispatcher::drain(self);
    }

    fn command(&self, cmd: &str, request: &Json) -> Option<Json> {
        match cmd {
            "workers" => {
                let workers = self
                    .workers()
                    .into_iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("addr".into(), Json::Str(w.addr)),
                            ("alive".into(), Json::Bool(w.alive)),
                            ("outstanding".into(), Json::u64(w.outstanding as u64)),
                        ])
                    })
                    .collect();
                Some(Json::Obj(vec![
                    ("type".into(), Json::str("workers")),
                    ("workers".into(), Json::Arr(workers)),
                ]))
            }
            "cache_stats" | "series" => Some(match job_arg(request, cmd) {
                // A malformed request gets the same reply as from a worker.
                Err(reply) if cmd == "series" => reply,
                _ => error_json(format!(
                    "the dispatcher has no {cmd}; ask a worker directly"
                )),
            }),
            _ => None,
        }
    }
}
