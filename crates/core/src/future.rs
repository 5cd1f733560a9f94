//! Response futures and wait policies (Table 2 of the paper), plus the one
//! protocol a future stands for: the COS key layout of a task's objects, the
//! status object that says how the task finished, and the LIST-based watch
//! by which the client and in-cloud reducers alike learn that it has.

use std::collections::HashMap;

use bytes::Bytes;
use rustwren_store::{CosClient, StoreError};

use crate::error::{self, PywrenError};
use crate::wire::Value;

/// Marker key identifying a result value that is really a set of futures
/// produced by an in-cloud executor (dynamic composition, §4.4).
pub const FUTURES_MARKER: &str = "__rustwren_futures__";

/// Key prefix of everything executor `exec_id` stages — what `clean()`
/// sweeps.
pub(crate) fn exec_prefix(exec_id: &str) -> String {
    format!("jobs/{exec_id}/")
}

/// Key of a job's function blob.
pub(crate) fn func_key(exec_id: &str, job_id: u64) -> String {
    format!("jobs/{exec_id}/{job_id}/func")
}

/// A handle to one remote task's eventual status and result in COS.
///
/// Futures are plain descriptors — (bucket, executor id, job id, task index)
/// — so they can be encoded into a [`Value`], returned from a cloud
/// function, and resolved by any client. This is what makes IBM-PyWren's
/// composability work: `get_result()` transparently follows futures returned
/// by other functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResponseFuture {
    bucket: String,
    exec_id: String,
    job_id: u64,
    task: u32,
}

impl ResponseFuture {
    /// Creates a future descriptor.
    pub fn new(bucket: &str, exec_id: &str, job_id: u64, task: u32) -> ResponseFuture {
        ResponseFuture {
            bucket: bucket.to_owned(),
            exec_id: exec_id.to_owned(),
            job_id,
            task,
        }
    }

    /// Bucket holding this task's objects.
    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    /// The owning executor's id.
    pub fn exec_id(&self) -> &str {
        &self.exec_id
    }

    /// The job this task belongs to.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Task index within the job.
    pub fn task(&self) -> u32 {
        self.task
    }

    /// Key prefix shared by all of this job's tasks.
    pub fn job_prefix(&self) -> String {
        format!("jobs/{}/{}/", self.exec_id, self.job_id)
    }

    /// Key prefix of this task's objects.
    pub fn task_prefix(&self) -> String {
        format!("jobs/{}/{}/t{:05}", self.exec_id, self.job_id, self.task)
    }

    /// Key of this task's staged input descriptor (exists only for
    /// descriptors too big to ride in the activation payload).
    pub(crate) fn input_key(&self) -> String {
        format!("{}/input", self.task_prefix())
    }

    /// Key of this task's status object.
    pub fn status_key(&self) -> String {
        format!("{}/status", self.task_prefix())
    }

    /// Key of this task's result object.
    pub fn result_key(&self) -> String {
        format!("{}/result", self.task_prefix())
    }

    /// Human-readable label for error messages, e.g. `"e1/j2/t00003"`.
    pub fn label(&self) -> String {
        format!("{}/{}/t{:05}", self.exec_id, self.job_id, self.task)
    }

    /// Encodes the descriptor for shipping inside a result value.
    pub fn to_value(&self) -> Value {
        Value::map()
            .with("bucket", self.bucket.as_str())
            .with("exec", self.exec_id.as_str())
            .with("job", self.job_id as i64)
            .with("task", i64::from(self.task))
    }

    /// Decodes a descriptor previously produced by
    /// [`to_value`](ResponseFuture::to_value).
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_value(v: &Value) -> Result<ResponseFuture, String> {
        Ok(ResponseFuture {
            bucket: v.req_str("bucket")?.to_owned(),
            exec_id: v.req_str("exec")?.to_owned(),
            job_id: v.req_i64("job")? as u64,
            task: v.req_i64("task")? as u32,
        })
    }

    /// Wraps a set of futures into the marker value recognized by
    /// `get_result()` (composition-aware result collection).
    pub fn set_to_value(futures: &[ResponseFuture]) -> Value {
        Value::map().with(
            FUTURES_MARKER,
            Value::List(futures.iter().map(ResponseFuture::to_value).collect()),
        )
    }

    /// If `v` is a futures marker, decodes the contained futures.
    ///
    /// # Errors
    ///
    /// A message if the marker is present but malformed.
    pub fn set_from_value(v: &Value) -> Result<Option<Vec<ResponseFuture>>, String> {
        let Some(list) = v.get(FUTURES_MARKER) else {
            return Ok(None);
        };
        let items = list.as_list().ok_or("futures marker is not a list")?;
        let futures = items
            .iter()
            .map(ResponseFuture::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Some(futures))
    }
}

/// The status object written at [`ResponseFuture::status_key`] by the agent
/// (or, for a task that died silently, by the client's recovery pass): how
/// the task finished, when, and — when small — its result. This type is the
/// only reader and writer of the object's fields.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskStatus {
    /// Virtual time the function body started, in seconds.
    pub start: f64,
    /// Virtual time the function body ended, in seconds.
    pub end: f64,
    /// Every field as it travels (`start`/`end` included), shape-checked by
    /// whichever of `new`/`decode` built this. Kept whole, with accessors
    /// that borrow: a shuffle manifest with inline slices is most of a
    /// status, every reducer reads one per map, and taking the decoded map
    /// apart to own the manifest costs `cloudsort` 3–7 % of its wall time.
    fields: Value,
}

impl TaskStatus {
    /// A status without result or manifest: `done` unless `error` is given.
    pub(crate) fn new(error: Option<&str>, start: f64, end: f64) -> TaskStatus {
        let state = if error.is_none() { "done" } else { "error" };
        let mut fields = Value::map()
            .with("state", state)
            .with("start", start)
            .with("end", end);
        if let Some(e) = error {
            fields = fields.with("error", e);
        }
        TaskStatus { start, end, fields }
    }

    /// Small results ride inside the status object: a single PUT then both
    /// marks the task done and delivers the result, and no `…/result`
    /// object (nor a gather GET for it) ever exists.
    pub(crate) fn with_result(mut self, result: Value) -> TaskStatus {
        self.fields = self.fields.with("result", result);
        self
    }

    /// A shuffle map's partition manifest always rides in its status:
    /// reducers need it to locate (or rule out) their partition without
    /// probing COS.
    pub(crate) fn with_shuf(mut self, manifest: Value) -> TaskStatus {
        self.fields = self.fields.with("shuf", manifest);
        self
    }

    pub(crate) fn encode(&self) -> Bytes {
        self.fields.encode()
    }

    /// Decodes the (verified, unstamped) bytes of `f`'s status object.
    ///
    /// # Errors
    ///
    /// [`PywrenError::Wire`] for bytes that are not a value;
    /// [`PywrenError::Task`] labelled with `f` for a status with no `state`,
    /// a state other than `done` with no `error` message, or a non-numeric
    /// `start`/`end`.
    pub(crate) fn decode(raw: &[u8], f: &ResponseFuture) -> error::Result<TaskStatus> {
        let fields = Value::decode(raw)?;
        let malformed = |message: String| PywrenError::Task {
            task: f.label(),
            message,
        };
        let secs = |k: &str| {
            fields
                .get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| malformed(format!("status missing field `{k}`")))
        };
        if fields.req_str("state").map_err(malformed)? != "done" {
            fields.req_str("error").map_err(malformed)?;
        }
        let (start, end) = (secs("start")?, secs("end")?);
        Ok(TaskStatus { start, end, fields })
    }

    /// Reads and decodes `f`'s status object through `read(bucket, key)`,
    /// the verified GET the caller already uses.
    ///
    /// # Errors
    ///
    /// Whatever `read` returns, or a [`decode`](TaskStatus::decode) error.
    pub(crate) fn read(
        f: &ResponseFuture,
        read: impl Fn(&str, &str) -> error::Result<Bytes>,
    ) -> error::Result<TaskStatus> {
        TaskStatus::decode(&read(f.bucket(), &f.status_key())?, f)
    }

    /// `None` for a task that finished `done`, else its error message.
    pub(crate) fn error(&self) -> Option<&str> {
        match self.fields.get("state").and_then(Value::as_str) {
            Some("done") => None,
            _ => self.fields.get("error").and_then(Value::as_str),
        }
    }

    /// The partition manifest of a shuffle map.
    pub(crate) fn shuf(&self) -> Option<&Value> {
        self.fields.get("shuf")
    }

    /// The result of finished task `f`: inline in this status, else one GET
    /// of `…/result` through `read`.
    ///
    /// # Errors
    ///
    /// [`PywrenError::Task`] with the task's own message if it did not
    /// finish `done`; otherwise whatever `read` returns, or
    /// [`PywrenError::Wire`] for an undecodable result object.
    pub(crate) fn into_result(
        mut self,
        f: &ResponseFuture,
        read: impl Fn(&str, &str) -> error::Result<Bytes>,
    ) -> error::Result<Value> {
        if let Some(message) = self.error() {
            return Err(PywrenError::Task {
                task: f.label(),
                message: message.to_owned(),
            });
        }
        let inline = match &mut self.fields {
            Value::Map(m) => m.remove("result"),
            _ => None,
        };
        match inline {
            Some(v) => Ok(v),
            None => Ok(Value::decode(&read(f.bucket(), &f.result_key())?)?),
        }
    }
}

/// "Which of these tasks have finished?", answered the way §4.2–§4.3 do for
/// `wait()`/`get_result()` on the client and for the reducer inside the
/// cloud: a task is finished once its status object exists, and existence is
/// learned from one LIST per distinct job prefix — matched against a
/// precomputed status-key index, so a poll stays cheap at thousands of tasks
/// (instead of O(tasks) per-key probes).
pub(crate) struct StatusWatch {
    /// Distinct `(bucket, job prefix)` pairs, in first-appearance order.
    prefixes: Vec<(String, String)>,
    /// Status key → index into the watched slice.
    index: HashMap<String, usize>,
}

impl StatusWatch {
    pub(crate) fn new(futures: &[ResponseFuture]) -> StatusWatch {
        let mut prefixes: Vec<(String, String)> = Vec::new();
        let mut index = HashMap::with_capacity(futures.len());
        for (i, f) in futures.iter().enumerate() {
            let prefix = f.job_prefix();
            if !prefixes
                .iter()
                .any(|(b, p)| b == f.bucket() && *p == prefix)
            {
                prefixes.push((f.bucket().to_owned(), prefix));
            }
            index.insert(f.status_key(), i);
        }
        StatusWatch { prefixes, index }
    }

    /// How many LISTs one [`landed`](StatusWatch::landed) call issues.
    pub(crate) fn prefixes(&self) -> u64 {
        self.prefixes.len() as u64
    }

    /// LISTs every prefix once and returns the indices of the watched
    /// futures whose status object exists, in listing order.
    ///
    /// # Errors
    ///
    /// The first LIST that fails.
    pub(crate) fn landed(&self, cos: &CosClient) -> Result<Vec<usize>, StoreError> {
        let mut landed = Vec::new();
        for (bucket, prefix) in &self.prefixes {
            for meta in cos.list(bucket, prefix)? {
                if let Some(&i) = self.index.get(&meta.key) {
                    landed.push(i);
                }
            }
        }
        Ok(landed)
    }
}

/// When [`crate::Executor::wait`] should unblock (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitPolicy {
    /// Check availability right now and return immediately.
    Always,
    /// Block until at least one *pending* task completes.
    AnyCompleted,
    /// Block until every task completes.
    #[default]
    AllCompleted,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn future() -> ResponseFuture {
        ResponseFuture::new("bkt", "e3", 2, 17)
    }

    #[test]
    fn keys_are_stable() {
        let f = future();
        assert_eq!(f.job_prefix(), "jobs/e3/2/");
        assert_eq!(f.status_key(), "jobs/e3/2/t00017/status");
        assert_eq!(f.result_key(), "jobs/e3/2/t00017/result");
        assert_eq!(f.input_key(), "jobs/e3/2/t00017/input");
        assert_eq!(f.label(), "e3/2/t00017");
        assert_eq!(func_key("e3", 2), "jobs/e3/2/func");
        assert!(f.job_prefix().starts_with(&exec_prefix("e3")));
        assert_eq!(exec_prefix("e3"), "jobs/e3/");
    }

    /// Status bytes are PUT through a priced client, so one byte more or
    /// less re-rolls jitter draws downstream. The literals are what commit
    /// 4a04c17's `status_value(..).with("shuf"..).with("result"..)` encoded
    /// for the four shapes a status takes.
    #[test]
    fn task_status_encoding_is_byte_identical_to_parent() {
        let done = TaskStatus::new(None, 1.5, 2.25);
        assert_eq!(
            &done.encode()[..],
            b"\x07\x03\x00\x00\x00\x03\x00\x00\x00end\x03\x00\x00\x00\x00\x00\x00\x02@\
              \x05\x00\x00\x00start\x03\x00\x00\x00\x00\x00\x00\xf8?\
              \x05\x00\x00\x00state\x04\x04\x00\x00\x00done"
        );
        let with_result = done.clone().with_result(Value::Int(7));
        assert_eq!(
            &with_result.encode()[..],
            b"\x07\x04\x00\x00\x00\x03\x00\x00\x00end\x03\x00\x00\x00\x00\x00\x00\x02@\
              \x06\x00\x00\x00result\x02\x07\x00\x00\x00\x00\x00\x00\x00\
              \x05\x00\x00\x00start\x03\x00\x00\x00\x00\x00\x00\xf8?\
              \x05\x00\x00\x00state\x04\x04\x00\x00\x00done"
        );
        let with_shuf = done.with_shuf(Value::map().with("n", 2i64).with("k", "relay"));
        assert_eq!(
            &with_shuf.encode()[..],
            b"\x07\x04\x00\x00\x00\x03\x00\x00\x00end\x03\x00\x00\x00\x00\x00\x00\x02@\
              \x04\x00\x00\x00shuf\x07\x02\x00\x00\x00\x01\x00\x00\x00k\x04\x05\x00\x00\x00relay\
              \x01\x00\x00\x00n\x02\x02\x00\x00\x00\x00\x00\x00\x00\
              \x05\x00\x00\x00start\x03\x00\x00\x00\x00\x00\x00\xf8?\
              \x05\x00\x00\x00state\x04\x04\x00\x00\x00done"
        );
        assert_eq!(
            &TaskStatus::new(Some("boom"), 1.5, 2.25).encode()[..],
            b"\x07\x04\x00\x00\x00\x03\x00\x00\x00end\x03\x00\x00\x00\x00\x00\x00\x02@\
              \x05\x00\x00\x00error\x04\x04\x00\x00\x00boom\
              \x05\x00\x00\x00start\x03\x00\x00\x00\x00\x00\x00\xf8?\
              \x05\x00\x00\x00state\x04\x05\x00\x00\x00error"
        );
    }

    #[test]
    fn task_status_roundtrips_and_rejects_malformed() {
        let f = future();
        let full = TaskStatus::new(None, 1.5, 2.25)
            .with_result(Value::Int(7))
            .with_shuf(Value::map().with("n", 2i64));
        let decoded = TaskStatus::decode(&full.encode(), &f).expect("decodes");
        assert_eq!(decoded, full);
        assert_eq!((decoded.start, decoded.end), (1.5, 2.25));
        assert_eq!(decoded.error(), None);
        assert_eq!(decoded.shuf(), Some(&Value::map().with("n", 2i64)));
        let failed = TaskStatus::new(Some("boom"), 1.0, 2.0);
        let decoded = TaskStatus::decode(&failed.encode(), &f).expect("decodes");
        assert_eq!(decoded.error(), Some("boom"));
        assert_eq!(decoded, failed);

        let ok = Value::map()
            .with("state", "done")
            .with("start", 1.0)
            .with("end", 2.0);
        let task_error = |v: &Value| match TaskStatus::decode(&v.encode(), &f) {
            Err(PywrenError::Task { task, message }) => {
                assert_eq!(task, f.label());
                message
            }
            other => panic!("expected a typed task error, got {other:?}"),
        };
        let mut no_state = ok.as_map().expect("map").clone();
        no_state.remove("state");
        assert!(task_error(&Value::Map(no_state)).contains("`state`"));
        // Once read as "failed with an unknown error".
        assert!(task_error(&ok.clone().with("state", "error")).contains("`error`"));
        assert!(task_error(&ok.clone().with("start", "soon")).contains("`start`"));
        assert!(task_error(&ok.clone().with("end", Value::Null)).contains("`end`"));
        assert!(task_error(&Value::Int(3)).contains("`state`"));
        assert!(matches!(
            TaskStatus::decode(b"nonsense", &f),
            Err(PywrenError::Wire(_))
        ));
    }

    #[test]
    fn finished_result_is_inline_else_one_read_of_the_result_key() {
        let f = future();
        let no_read = |_: &str, _: &str| -> error::Result<Bytes> { panic!("inline needs no read") };
        let inline = TaskStatus::new(None, 0.0, 1.0).with_result(Value::Int(7));
        assert_eq!(inline.into_result(&f, no_read), Ok(Value::Int(7)));
        let staged = TaskStatus::new(None, 0.0, 1.0).into_result(&f, |bucket, key| {
            assert_eq!((bucket, key), ("bkt", "jobs/e3/2/t00017/result"));
            Ok(Value::Int(9).encode())
        });
        assert_eq!(staged, Ok(Value::Int(9)));
        let failed = TaskStatus::new(Some("boom"), 0.0, 1.0).into_result(&f, no_read);
        assert_eq!(
            failed,
            Err(PywrenError::Task {
                task: f.label(),
                message: "boom".into()
            })
        );
    }

    #[test]
    fn value_roundtrip() {
        let f = future();
        assert_eq!(ResponseFuture::from_value(&f.to_value()), Ok(f));
    }

    #[test]
    fn from_value_rejects_malformed() {
        assert!(ResponseFuture::from_value(&Value::map()).is_err());
        assert!(ResponseFuture::from_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn futures_set_roundtrip() {
        let futures = vec![future(), ResponseFuture::new("bkt", "e3", 2, 18)];
        let v = ResponseFuture::set_to_value(&futures);
        assert_eq!(ResponseFuture::set_from_value(&v), Ok(Some(futures)));
    }

    #[test]
    fn non_marker_values_are_not_future_sets() {
        assert_eq!(ResponseFuture::set_from_value(&Value::Int(5)), Ok(None));
        assert_eq!(
            ResponseFuture::set_from_value(&Value::map().with("x", 1i64)),
            Ok(None)
        );
    }

    #[test]
    fn default_wait_policy_is_all_completed() {
        assert_eq!(WaitPolicy::default(), WaitPolicy::AllCompleted);
    }
}
