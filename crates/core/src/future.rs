//! Response futures and wait policies (Table 2 of the paper), plus the one
//! protocol a future stands for: the COS key layout of a task's objects, the
//! status object that says how the task finished, and the LIST-based watch
//! by which the client and in-cloud reducers alike learn that it has.

use std::collections::HashMap;
use std::future::Future;
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;
use rustwren_store::{CosClient, ListedObject, StoreError};

use crate::error::{self, PywrenError};
use crate::wire::{Value, ValueRef, Writer};

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
///
/// The two names are shared, not copied: a clone, or a future of another
/// task of the same executor, allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResponseFuture {
    bucket: Arc<str>,
    exec_id: Arc<str>,
    job_id: u64,
    task: u32,
}

impl ResponseFuture {
    /// Creates a future descriptor.
    pub fn new(bucket: &str, exec_id: &str, job_id: u64, task: u32) -> ResponseFuture {
        ResponseFuture::named(&Arc::from(bucket), &Arc::from(exec_id), job_id, task)
    }

    /// The future of task `task` of job `job_id`, sharing the names given.
    pub(crate) fn named(
        bucket: &Arc<str>,
        exec_id: &Arc<str>,
        job_id: u64,
        task: u32,
    ) -> ResponseFuture {
        ResponseFuture {
            bucket: Arc::clone(bucket),
            exec_id: Arc::clone(exec_id),
            job_id,
            task,
        }
    }

    /// The future of task `task` of this one's job, sharing its names.
    pub(crate) fn sibling(&self, task: u32) -> ResponseFuture {
        ResponseFuture::named(&self.bucket, &self.exec_id, self.job_id, task)
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

    /// Key of this task's object `leaf`, below its
    /// [`task_prefix`](ResponseFuture::task_prefix), written into one
    /// `String` of its exact length.
    fn task_key(&self, leaf: &str) -> String {
        let task = u64::from(self.task);
        let len = "jobs/".len()
            + self.exec_id.len()
            + "/".len()
            + decimal_digits(self.job_id)
            + "/t".len()
            + decimal_digits(task).max(TASK_DIGITS)
            + "/".len()
            + leaf.len();
        let mut key = String::with_capacity(len);
        key.push_str("jobs/");
        key.push_str(&self.exec_id);
        key.push('/');
        push_decimal(&mut key, self.job_id, 0);
        key.push_str("/t");
        push_decimal(&mut key, task, TASK_DIGITS);
        key.push('/');
        key.push_str(leaf);
        key
    }

    /// Key of this task's staged input descriptor (exists only for
    /// descriptors too big to ride in the activation payload).
    pub(crate) fn input_key(&self) -> String {
        self.task_key("input")
    }

    /// Key of this task's status object.
    pub fn status_key(&self) -> String {
        self.task_key("status")
    }

    /// Key of this task's result object.
    pub fn result_key(&self) -> String {
        self.task_key("result")
    }

    /// Human-readable label for error messages, e.g. `"e1/j2/t00003"`.
    pub fn label(&self) -> String {
        format!("{}/{}/t{:05}", self.exec_id, self.job_id, self.task)
    }

    /// Encodes the descriptor for shipping inside a result value.
    pub fn to_value(&self) -> Value {
        Value::map()
            .with("bucket", self.bucket())
            .with("exec", self.exec_id())
            .with("job", self.job_id as i64)
            .with("task", i64::from(self.task))
    }

    /// Writes [`to_value`](ResponseFuture::to_value)'s map, field by field.
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        let mut fields = w.map_header(4);
        fields.key("bucket").str(self.bucket());
        fields.key("exec").str(self.exec_id());
        fields.key("job").int(self.job_id as i64);
        fields.key("task").int(i64::from(self.task));
    }

    /// Decodes a descriptor previously produced by
    /// [`to_value`](ResponseFuture::to_value).
    ///
    /// # Errors
    ///
    /// A message naming the missing, mistyped or out-of-range field.
    pub fn from_value(v: &Value) -> Result<ResponseFuture, String> {
        let (bucket, exec_id) = (v.req_str("bucket")?, v.req_str("exec")?);
        Ok(ResponseFuture::new(
            bucket,
            exec_id,
            v.req_int("job")?,
            v.req_int("task")?,
        ))
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
/// the task finished, when, and — when small — its result. This type and
/// [`StatusView`], what [`TaskStatus::decode`] returns, are the only writer
/// and reader of the object's fields.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskStatus<'a> {
    /// The task's error message; `None` for a task that finished `done`.
    error: Option<&'a str>,
    start: f64,
    end: f64,
    result: Option<Value>,
    /// The partition manifest, as its writer encoded it.
    shuf: Option<Bytes>,
}

impl<'a> TaskStatus<'a> {
    /// A status without result or manifest: `done` unless `error` is given.
    pub(crate) fn new(error: Option<&'a str>, start: f64, end: f64) -> TaskStatus<'a> {
        TaskStatus {
            error,
            start,
            end,
            result: None,
            shuf: None,
        }
    }

    /// Small results ride inside the status object: a single PUT then both
    /// marks the task done and delivers the result, and no `…/result`
    /// object (nor a gather GET for it) ever exists.
    pub(crate) fn with_result(mut self, result: Value) -> TaskStatus<'a> {
        self.result = Some(result);
        self
    }

    /// A shuffle map's partition manifest always rides in its status:
    /// reducers need it to locate (or rule out) their partition without
    /// probing COS. `manifest` is its encoding, spliced in as it is.
    pub(crate) fn with_manifest(mut self, manifest: Bytes) -> TaskStatus<'a> {
        self.shuf = Some(manifest);
        self
    }

    fn state(&self) -> &'static str {
        if self.error.is_none() {
            "done"
        } else {
            "error"
        }
    }

    /// Exact length of what [`encode_into`](TaskStatus::encode_into) writes.
    fn encoded_len(&self) -> usize {
        Writer::measure(|w| self.encode_into(w))
    }

    /// The status in a writer sized for it: plain, or `stamped`.
    fn encode_with(&self, stamped: fn(usize) -> Writer) -> Bytes {
        let mut w = stamped(self.encoded_len());
        self.encode_into(&mut w);
        w.finish()
    }

    /// Writes the status as the map it is.
    fn encode_into(&self, w: &mut Writer) {
        let optional = [
            self.error.is_some(),
            self.result.is_some(),
            self.shuf.is_some(),
        ];
        let mut fields = w.map_header(3 + optional.into_iter().filter(|&some| some).count());
        fields.key("end").float(self.end);
        if let Some(error) = self.error {
            fields.key("error").str(error);
        }
        if let Some(result) = &self.result {
            fields.key("result").value(result);
        }
        if let Some(manifest) = &self.shuf {
            fields.key("shuf").raw(manifest);
        }
        fields.key("start").float(self.start);
        fields.key("state").str(self.state());
    }

    /// The unstamped bytes [`put_async`](TaskStatus::put_async) stamps and writes.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Bytes {
        self.encode_with(Writer::new)
    }

    /// Writes this as `f`'s status object, checksum-stamped, encoded
    /// straight into the stamped buffer, and vouched for.
    ///
    /// # Errors
    ///
    /// The PUT's.
    pub(crate) async fn put_async(
        &self,
        cos: &CosClient,
        f: &ResponseFuture,
    ) -> Result<(), StoreError> {
        let stamped = self.encode_with(Writer::stamped);
        cos.put_vouched_async(f.bucket(), &f.status_key(), stamped)
            .await
    }

    /// Checks the (verified, unstamped) bytes of `f`'s status object end to
    /// end and reads what every reader wants, in one pass that builds
    /// nothing; a shuffle map's status then has its manifest's `parts`
    /// passed over once more, to note where each reducer's entry starts.
    ///
    /// # Errors
    ///
    /// [`PywrenError::Wire`] for bytes that are not a value;
    /// [`PywrenError::Task`] labelled with `f` for a status with no `state`,
    /// a state other than `done` with no `error` message, or a non-numeric
    /// `start`/`end`.
    pub(crate) fn decode(raw: Bytes, f: &ResponseFuture) -> error::Result<StatusView> {
        // The last entry under a key wins, as it would decoding into a map.
        let (mut state, mut error, mut start, mut end) = (None, None, None, None);
        let (mut result, mut shuf) = (None, None);
        ValueRef::parse_entries(&raw, |key, v, _| match key {
            "state" => state = Some(v),
            "error" => error = Some(v),
            "start" => start = Some(v),
            "end" => end = Some(v),
            "result" => result = Some(v.offset()),
            "shuf" => shuf = Some(v.offset()),
            _ => {}
        })?;
        let malformed = |message: String| PywrenError::Task {
            task: f.label(),
            message,
        };
        let no_text = |k: &str| malformed(format!("missing or non-string field `{k}`"));
        let secs = |v: Option<ValueRef>, k: &str| {
            v.and_then(|v| v.as_f64())
                .ok_or_else(|| malformed(format!("status missing field `{k}`")))
        };
        let state = state.and_then(|v| v.as_str());
        let error = match state.ok_or_else(|| no_text("state"))? {
            "done" => None,
            _ => Some(
                error
                    .filter(|v| v.as_str().is_some())
                    .ok_or_else(|| no_text("error"))?
                    .offset(),
            ),
        };
        let (start, end) = (secs(start, "start")?, secs(end, "end")?);
        let parts = shuf.and_then(|at| ValueRef::at_offset(&raw, at).get("parts"));
        let parts = parts.and_then(|parts| parts.items());
        let parts = parts.map_or_else(Arc::default, |items| items.map(|v| v.offset()).collect());
        Ok(StatusView {
            start,
            end,
            raw,
            error,
            result,
            shuf,
            parts,
        })
    }
}

/// A status object as read back: validated once, built on demand.
#[derive(Debug, Clone)]
pub(crate) struct StatusView {
    /// Virtual time the function body started, in seconds.
    pub start: f64,
    /// Virtual time the function body ended, in seconds.
    pub end: f64,
    /// The verified bytes of the object — a zero-copy slice of the GET's
    /// response past its stamp — which [`TaskStatus::decode`] has walked
    /// once, checking every node. They stay encoded: a shuffle manifest
    /// with inline slices is most of a map's status, each of R reducers
    /// reads one per map and uses the R-th part of it, and most other
    /// readers (the recovery pass, `task_timings`) want the scalars above
    /// and nothing else. So nothing is built here; the offsets below are
    /// where the walk passed the fields a reader may come back for.
    raw: Bytes,
    /// The `error` message: present exactly when `state` is not `done`.
    error: Option<usize>,
    result: Option<usize>,
    shuf: Option<usize>,
    /// Each item of `shuf.parts`, if that is a list.
    parts: Arc<[usize]>,
}

impl StatusView {
    /// `None` for a task that finished `done`, else its error message.
    pub(crate) fn error(&self) -> Option<&str> {
        ValueRef::at_offset(&self.raw, self.error?).as_str()
    }

    /// The partition manifest of a shuffle map.
    pub(crate) fn shuf(&self) -> Option<ValueRef<'_>> {
        Some(ValueRef::at_offset(&self.raw, self.shuf?))
    }

    /// Reducer `i`'s entry of the manifest's `parts` — `None` if the status
    /// has no such entry — from where the status's reader found it: half a
    /// manifest of inline slices is not walked again to reach it.
    pub(crate) fn shuf_part(&self, i: usize) -> Option<ValueRef<'_>> {
        Some(ValueRef::at_offset(&self.raw, *self.parts.get(i)?))
    }

    /// The verified bytes every view and offset above points into.
    pub(crate) fn bytes(&self) -> &Bytes {
        &self.raw
    }

    /// The result of finished task `f`: inline in this status, else the
    /// verified bytes of `…/result` that `staged` reads (awaited only then).
    /// Either way the only value built.
    ///
    /// # Errors
    ///
    /// [`PywrenError::Task`] with the task's own message if it did not
    /// finish `done`; otherwise whatever `staged` returns, or
    /// [`PywrenError::Wire`] for an undecodable result object.
    pub(crate) async fn into_result(
        self,
        f: &ResponseFuture,
        staged: impl Future<Output = error::Result<Bytes>>,
    ) -> error::Result<Value> {
        if let Some(message) = self.error() {
            return Err(PywrenError::Task {
                task: f.label(),
                message: message.to_owned(),
            });
        }
        match self.result {
            Some(at) => Ok(ValueRef::at_offset(&self.raw, at).to_value()?),
            None => Ok(Value::decode(&staged.await?)?),
        }
    }
}

/// The shuffle reducers' one reading of each map status (DESIGN §10). Each
/// of R reducers GETs every map's status, its stamp checked as every read's
/// is; a read whose bytes are the bytes a successful [`TaskStatus::decode`]
/// walked under the same key takes that walk's view instead of walking them
/// again. Only a walk that succeeds is kept — one view per status key,
/// until the executor's `clean` deletes the status, holding bytes the store
/// already shares — so a re-written status, a failed walk or a corrupted
/// read is walked as ever. The lock is a plain `std` one: host-only state,
/// never contended under the kernel's one runner at a time.
#[derive(Default)]
pub(crate) struct StatusMemo(Mutex<Memo>);

#[derive(Default)]
struct Memo {
    views: HashMap<String, StatusView>,
    walked: u64,
    reused: u64,
}

impl StatusMemo {
    /// [`TaskStatus::decode`] of `raw`, the verified bytes just read at
    /// status key `key` for `f`, and its errors.
    pub(crate) fn decode(
        &self,
        key: String,
        raw: Bytes,
        f: &ResponseFuture,
    ) -> error::Result<StatusView> {
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let memo = &mut *memo;
        let of_these_bytes = |view: &&StatusView| {
            let same = (view.raw.as_ptr(), view.raw.len()) == (raw.as_ptr(), raw.len());
            same || view.raw == raw
        };
        if let Some(view) = memo.views.get(&key).filter(of_these_bytes) {
            memo.reused += 1;
            return Ok(view.clone());
        }
        memo.walked += 1;
        let view = TaskStatus::decode(raw, f)?;
        memo.views.insert(key, view.clone());
        Ok(view)
    }

    /// Drops the views of statuses under `prefix`, whose objects
    /// [`Executor::clean`](crate::Executor::clean) deleted: a view kept
    /// would hold their bytes for the life of the cloud.
    pub(crate) fn forget(&self, prefix: &str) {
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        memo.views.retain(|key, _| !key.starts_with(prefix));
    }

    /// Reads that walked their bytes, and reads that took a kept view.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        (memo.walked, memo.reused)
    }

    /// How many views are kept for statuses under `prefix`.
    #[cfg(test)]
    pub(crate) fn kept_under(&self, prefix: &str) -> usize {
        let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        memo.views
            .keys()
            .filter(|key| key.starts_with(prefix))
            .count()
    }
}

/// "Which of these tasks have finished?", answered the way §4.2–§4.3 do for
/// `wait()`/`get_result()` on the client and for the reducer inside the
/// cloud: a task is finished once its status object exists, and existence is
/// learned from one LIST per distinct job prefix. The LIST is walked in
/// place, each listed key parsed for its task number and looked up in its
/// prefix's task table, so a poll stays one allocation-free pass over the
/// listing at thousands of tasks (instead of O(tasks) per-key probes).
pub(crate) struct StatusWatch {
    /// Distinct job prefixes, in first-appearance order.
    prefixes: Vec<Watched>,
    /// Per watched index, the index its status lands as: itself, or the
    /// last index watching an equal future.
    slots: Vec<usize>,
}

/// One job prefix's watched tasks: an open-addressed table indexed by task
/// number modulo its power-of-two length, at least twice the tasks, so a
/// job's tasks `0..n` each sit in their own slot.
struct Watched {
    bucket: String,
    prefix: String,
    /// `(task, watched index)`; a slot holds the last index inserted for
    /// its task.
    table: Vec<Option<(u32, usize)>>,
}

impl Watched {
    /// The table of `tasks`' `(task, watched index)`s, in watched order.
    fn new(bucket: &str, prefix: String, tasks: &[(u32, usize)]) -> Watched {
        let mut watched = Watched {
            bucket: bucket.to_owned(),
            prefix,
            table: vec![None; (tasks.len() * 2).next_power_of_two()],
        };
        for &(task, i) in tasks {
            if let Some(slot) = watched.find(task).and_then(|at| watched.table.get_mut(at)) {
                *slot = Some((task, i));
            }
        }
        watched
    }

    /// Slot positions probed for `task`, starting at its home slot.
    fn probe(&self, task: u32) -> impl Iterator<Item = usize> {
        let mask = self.table.len().wrapping_sub(1);
        (0..self.table.len()).map(move |step| (task as usize).wrapping_add(step) & mask)
    }

    /// Where `task` is, or the empty slot where it would go.
    fn find(&self, task: u32) -> Option<usize> {
        self.probe(task).find(|&at| {
            self.table
                .get(at)
                .is_some_and(|slot| slot.is_none_or(|(t, _)| t == task))
        })
    }

    /// The watched index whose status `task`'s lands as.
    fn get(&self, task: u32) -> Option<usize> {
        let at = self.find(task)?;
        self.table.get(at).copied().flatten().map(|(_, i)| i)
    }
}

impl StatusWatch {
    pub(crate) fn new(futures: &[ResponseFuture]) -> StatusWatch {
        let mut jobs = Vec::new();
        // Per job: its bucket, its prefix and its (task, watched index)s.
        let mut watched = Vec::new();
        let mut prefix_of = Vec::with_capacity(futures.len());
        for (i, f) in futures.iter().enumerate() {
            // Compared by field: a prefix is formatted once per job.
            let job = (f.bucket(), f.exec_id(), f.job_id);
            let p = jobs.iter().position(|j| *j == job).unwrap_or_else(|| {
                jobs.push(job);
                watched.push((f.bucket(), f.job_prefix(), Vec::new()));
                jobs.len() - 1
            });
            if let Some((_, _, tasks)) = watched.get_mut(p) {
                tasks.push((f.task, i));
            }
            prefix_of.push(p);
        }
        let prefixes: Vec<Watched> = watched
            .into_iter()
            .map(|(bucket, prefix, tasks)| Watched::new(bucket, prefix, &tasks))
            .collect();
        let slots = futures
            .iter()
            .zip(prefix_of)
            .enumerate()
            .map(|(i, (f, p))| prefixes.get(p).and_then(|w| w.get(f.task)).unwrap_or(i))
            .collect();
        StatusWatch { prefixes, slots }
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
    pub(crate) async fn landed(&self, cos: &CosClient) -> Result<Vec<usize>, StoreError> {
        let mut landed = Vec::new();
        for w in &self.prefixes {
            let visit = |o: ListedObject<'_>| {
                let task = o.key().get(w.prefix.len()..).and_then(status_task);
                if let Some(i) = task.and_then(|t| w.get(t)) {
                    landed.push(i);
                }
            };
            cos.list_each_async(&w.bucket, &w.prefix, visit).await?;
        }
        Ok(landed)
    }

    /// An empty done set over the watched futures.
    pub(crate) fn done_set(&self) -> DoneSet {
        DoneSet {
            slots: self.slots.clone(),
            bits: vec![0; self.slots.len().div_ceil(64)],
        }
    }
}

/// Which watched futures are done: one bit per watched index, under the
/// index its status lands as, so equal futures are done or not together.
pub(crate) struct DoneSet {
    slots: Vec<usize>,
    bits: Vec<u64>,
}

impl DoneSet {
    /// Whether watched future `i` is done.
    pub(crate) fn contains(&self, i: usize) -> bool {
        let Some(&slot) = self.slots.get(i) else {
            return false;
        };
        self.bits
            .get(slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    /// The word holding watched future `i`'s bit, and the bit.
    fn word(&mut self, i: usize) -> Option<(&mut u64, u64)> {
        let slot = *self.slots.get(i)?;
        Some((self.bits.get_mut(slot / 64)?, 1 << (slot % 64)))
    }

    /// Marks watched future `i` (and every equal one) done.
    pub(crate) fn insert(&mut self, i: usize) {
        if let Some((w, bit)) = self.word(i) {
            *w |= bit;
        }
    }

    /// Marks watched future `i` (and every equal one) not done.
    pub(crate) fn remove(&mut self, i: usize) {
        if let Some((w, bit)) = self.word(i) {
            *w &= !bit;
        }
    }

    /// Marks every watched future not done.
    pub(crate) fn clear(&mut self) {
        self.bits.fill(0);
    }
}

/// The task number of a status key below its job prefix: `t{:05}/status`,
/// as [`ResponseFuture::status_key`] formats it and in no other spelling.
fn status_task(key: &str) -> Option<u32> {
    let digits = key.strip_prefix('t')?.strip_suffix("/status")?;
    let padded = digits.len() == 5 || (digits.len() > 5 && !digits.starts_with('0'));
    if !padded || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
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

/// Width a task number is zero-padded to in its keys (`t00017`).
const TASK_DIGITS: usize = 5;

/// Digits of `n` in decimal.
fn decimal_digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends `n` in decimal, zero-padded to `width` digits, one digit at a
/// time.
fn push_decimal(out: &mut String, n: u64, width: usize) {
    let digits = decimal_digits(n);
    out.extend(std::iter::repeat_n('0', width.saturating_sub(digits)));
    let mut place = 10u64.pow(digits as u32 - 1);
    while place > 0 {
        out.push(char::from(b'0' + (n / place % 10) as u8));
        place /= 10;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<'a> TaskStatus<'a> {
        /// [`with_manifest`](TaskStatus::with_manifest) of `manifest`'s
        /// encoding.
        pub(crate) fn with_shuf(self, manifest: Value) -> TaskStatus<'a> {
            self.with_manifest(manifest.encode())
        }
    }

    fn future() -> ResponseFuture {
        ResponseFuture::new("bkt", "e3", 2, 17)
    }

    /// Task keys are the `format!` reference's, padding and all, and fill
    /// their `String` exactly.
    #[test]
    fn task_keys_equal_the_formatted_reference() {
        for job in [0, 7, 4_096, u64::MAX] {
            for task in [0, 7, 99_999, 100_000, u32::MAX] {
                let fut = ResponseFuture::new("bkt", "e12", job, task);
                for (key, leaf) in [
                    (fut.input_key(), "input"),
                    (fut.status_key(), "status"),
                    (fut.result_key(), "result"),
                ] {
                    assert_eq!(key, format!("jobs/e12/{job}/t{task:05}/{leaf}"));
                    assert_eq!(key.capacity(), key.len(), "{key}");
                }
            }
        }
    }

    /// `into_result` over a staged read that does not suspend: one poll.
    fn result_of(
        status: StatusView,
        f: &ResponseFuture,
        staged: impl FnOnce() -> error::Result<Bytes>,
    ) -> error::Result<Value> {
        let result = std::pin::pin!(status.into_result(f, async { staged() }));
        match rustwren_sim::task::resume(result) {
            std::ops::ControlFlow::Break(result) => result,
            std::ops::ControlFlow::Continue(_) => panic!("a ready read suspended"),
        }
    }

    fn no_read() -> error::Result<Bytes> {
        panic!("inline needs no read")
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
        let decoded = TaskStatus::decode(full.encode(), &f).expect("decodes");
        assert_eq!((decoded.start, decoded.end), (1.5, 2.25));
        assert_eq!(decoded.error(), None);
        let shuf = decoded.shuf().expect("a manifest").to_value();
        assert_eq!(shuf, Ok(Value::map().with("n", 2i64)));
        assert_eq!(result_of(decoded, &f, no_read), Ok(Value::Int(7)));
        let failed = TaskStatus::new(Some("boom"), 1.0, 2.0);
        let decoded = TaskStatus::decode(failed.encode(), &f).expect("decodes");
        assert_eq!(decoded.error(), Some("boom"));
        assert!(decoded.shuf().is_none());

        let ok = Value::map()
            .with("state", "done")
            .with("start", 1.0)
            .with("end", 2.0);
        let task_error = |v: &Value| match TaskStatus::decode(v.encode(), &f) {
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
            TaskStatus::decode(Bytes::from_static(b"nonsense"), &f),
            Err(PywrenError::Wire(_))
        ));
    }

    #[test]
    fn finished_result_is_inline_else_the_staged_read() {
        let f = future();
        let read_back = |s: TaskStatus| TaskStatus::decode(s.encode(), &f).expect("decodes");
        let inline = read_back(TaskStatus::new(None, 0.0, 1.0).with_result(Value::Int(7)));
        assert_eq!(result_of(inline, &f, no_read), Ok(Value::Int(7)));
        let staged = read_back(TaskStatus::new(None, 0.0, 1.0));
        let staged = result_of(staged, &f, || Ok(Value::Int(9).encode()));
        assert_eq!(staged, Ok(Value::Int(9)));
        let failed = read_back(TaskStatus::new(Some("boom"), 0.0, 1.0));
        let failed = result_of(failed, &f, no_read);
        assert_eq!(
            failed,
            Err(PywrenError::Task {
                task: f.label(),
                message: "boom".into()
            })
        );
    }

    #[test]
    fn status_reader_checks_what_it_does_not_read_and_takes_whole_seconds() {
        let f = future();
        // A field no reader looks at, holding a string that is not UTF-8.
        let junk = Value::map()
            .with("state", "done")
            .with("start", 1i64)
            .with("end", 2i64)
            .with("junk", "ab");
        let mut raw = junk.encode().to_vec();
        let at = raw.windows(2).position(|w| w == b"ab").expect("the junk");
        raw[at] = 0xFF;
        assert_eq!(
            TaskStatus::decode(Bytes::from(raw), &f).err(),
            Some(PywrenError::Wire(crate::wire::WireError::BadUtf8))
        );
        let whole = TaskStatus::decode(junk.encode(), &f).expect("decodes");
        assert_eq!((whole.start, whole.end), (1.0, 2.0));
    }

    /// The reader this one replaced — build the whole value, then look —
    /// as the reference: the fields it accepts, or which kind of error.
    fn reference(bytes: &[u8]) -> Result<Value, &'static str> {
        let v = Value::decode(bytes).map_err(|_| "wire")?;
        let text = |k: &str| v.get(k).and_then(Value::as_str);
        let finished = match text("state") {
            None => false,
            Some("done") => true,
            Some(_) => text("error").is_some(),
        };
        let timed = ["start", "end"]
            .iter()
            .all(|k| v.get(k).and_then(Value::as_f64).is_some());
        if finished && timed {
            Ok(v)
        } else {
            Err("task")
        }
    }

    /// The status reader makes of `bytes` what the reference does: the same
    /// class of error — the recovery pass books `Wire` and `Task` as
    /// "finished and failed" and anything else as "poll again" — or the
    /// same fields.
    fn check_status(bytes: Vec<u8>) -> Result<(), String> {
        for part in [0, 1, 5] {
            check_part(&bytes, part)?;
        }
        let f = future();
        let want = reference(&bytes);
        let (status, v) = match (TaskStatus::decode(Bytes::from(bytes), &f), want) {
            (Err(PywrenError::Wire(_)), Err("wire")) => return Ok(()),
            (Err(PywrenError::Task { .. }), Err("task")) => return Ok(()),
            (Ok(status), Ok(v)) => (status, v),
            (got, want) => return Err(format!("reader {got:?}, reference {want:?}")),
        };
        let secs = |k: &str| v.get(k).and_then(Value::as_f64).map(f64::to_bits);
        let error = match v.get("state").and_then(Value::as_str) {
            Some("done") => None,
            _ => v.get("error").and_then(Value::as_str),
        };
        let shuf = status.shuf().map(|s| s.to_value());
        let same = (Some(status.start.to_bits()), Some(status.end.to_bits()))
            == (secs("start"), secs("end"))
            && status.error() == error
            && shuf == v.get("shuf").cloned().map(Ok);
        if !same {
            return Err(format!("reader {status:?}, reference {v:?}"));
        }
        if error.is_none() {
            let staged = Value::from("read from the result key");
            let result = result_of(status, &f, || Ok(staged.encode()));
            if result.as_ref() != Ok(v.get("result").unwrap_or(&staged)) {
                return Err(format!("result {result:?}, reference {v:?}"));
            }
        }
        Ok(())
    }

    /// Everything a view holds, floats by their bits.
    fn fields(v: &StatusView) -> impl PartialEq + std::fmt::Debug {
        let offsets = (v.error, v.result, v.shuf, v.parts.clone());
        (v.start.to_bits(), v.end.to_bits(), v.raw.clone(), offsets)
    }

    /// Reading `bytes` through a [`StatusMemo`] is reading them fresh, four
    /// ways under one key: the first read (a miss), the same `Bytes` again
    /// and a byte-equal copy in a fresh allocation (hits, if the first walk
    /// succeeded), other bytes, and the first bytes once more. Each read
    /// makes what [`TaskStatus::decode`] does of its bytes — the same error,
    /// or the same fields — and reducer `part`'s entry is the `part`-th item
    /// of the last `parts` of the last `shuf`. Only a walk that succeeded is
    /// kept, so a read is a hit exactly when its bytes are the last such
    /// walk's.
    fn check_part(bytes: &[u8], part: usize) -> Result<(), String> {
        let f = future();
        let memo = StatusMemo::default();
        let first = Bytes::copy_from_slice(bytes);
        let other = TaskStatus::new(None, 0.0, 1.0)
            .with_shuf(Value::map())
            .encode();
        let copy = Bytes::copy_from_slice(bytes);
        let reads = [first.clone(), first.clone(), copy, other, first];
        let mut kept: Option<Bytes> = None;
        for (n, raw) in reads.into_iter().enumerate() {
            let fresh = TaskStatus::decode(raw.clone(), &f);
            let before = memo.counts();
            let read = memo.decode(f.status_key(), raw.clone(), &f);
            let hit = kept.as_ref() == Some(&raw);
            let want = if hit { (0, 1) } else { (1, 0) };
            let counts = memo.counts();
            if (counts.0 - before.0, counts.1 - before.1) != want {
                return Err(format!(
                    "read {n} of {bytes:?}: hit {hit}, counts {counts:?}"
                ));
            }
            let status = match (read, fresh) {
                (Err(got), Err(want)) if got == want => continue,
                (Ok(got), Ok(want)) if fields(&got) == fields(&want) => got,
                (got, want) => return Err(format!("read {n}: memo {got:?}, fresh {want:?}")),
            };
            kept = Some(raw);
            let walked_to = status
                .shuf()
                .and_then(|shuf| shuf.get("parts"))
                .and_then(|parts| parts.at(part));
            let found = status.shuf_part(part).map(|v| v.offset());
            let walked_to = walked_to.map(|v| v.offset());
            if found != walked_to {
                return Err(format!(
                    "part {part} of {bytes:?}: found at {found:?}, walking at {walked_to:?}"
                ));
            }
        }
        Ok(())
    }

    /// The one rule: a read is taken on trust only when it is the store's
    /// own allocation of an object its writer vouched for. A writer that
    /// vouches for a stamp it did not compute shows it — its read is taken
    /// as written — while the same bytes planted without a vouch, or
    /// planted over a vouched object, fail as [`PywrenError::Integrity`] at
    /// a status key and at a result key alike; a read through the memo is
    /// checked first, and only then decoded or reused.
    #[test]
    fn reads_take_only_a_vouched_allocation_on_trust() {
        let f = future();
        let kernel = rustwren_sim::Kernel::new();
        let store = rustwren_store::ObjectStore::new(&kernel);
        store.create_bucket(f.bucket()).expect("bucket");
        let cos = CosClient::new(&store, rustwren_sim::NetworkProfile::lan(), 9);
        let payload = TaskStatus::new(None, 0.0, 1.0).encode();
        let good = crate::wire::stamp(&payload);
        let mut lie = good.to_vec();
        if let Some(checksum) = lie.get_mut(1) {
            *checksum ^= 1;
        }
        let lie = Bytes::from(lie);
        let read = |key: &str| block_on(crate::job::get_verified_async(&cos, f.bucket(), key));
        let integrity = |r: error::Result<Bytes>| matches!(r, Err(PywrenError::Integrity { .. }));
        kernel.run("client", || {
            for key in [f.status_key(), f.result_key()] {
                block_on(cos.put_vouched_async(f.bucket(), &key, lie.clone())).expect("put");
                let trusted = read(&key).expect("a vouched read is taken as written");
                let stored = store.get(f.bucket(), &key).expect("stored");
                assert_eq!(
                    trusted.as_ptr(),
                    stored.as_ptr().wrapping_add(crate::wire::STAMP_LEN)
                );
                assert_eq!(trusted, payload);
                store.put(f.bucket(), &key, lie.clone()).expect("plant");
                assert!(integrity(read(&key)), "an unvouched plant at {key}");
                block_on(cos.put_vouched_async(f.bucket(), &key, good.clone())).expect("put");
                assert_eq!(read(&key), Ok(payload.clone()));
                store.put(f.bucket(), &key, lie.clone()).expect("plant");
                assert!(integrity(read(&key)), "a plant over a vouched {key}");
            }
            let memo = StatusMemo::default();
            let key = f.status_key();
            let through_memo = || read(&key).and_then(|raw| memo.decode(key.clone(), raw, &f));
            assert!(integrity(through_memo().map(|view| view.bytes().clone())));
            block_on(TaskStatus::new(None, 0.0, 1.0).put_async(&cos, &f)).expect("put");
            let first = through_memo().expect("a status");
            let again = through_memo().expect("a status");
            assert_eq!(first.bytes().as_ptr(), again.bytes().as_ptr());
            assert_eq!(memo.counts(), (1, 1), "checked, then walked once");
        });
    }

    use crate::wire::corpus;
    use proptest::prelude::*;

    /// A status as the writer makes one, as `(key, value)` entries.
    fn written_status() -> impl Strategy<Value = Vec<(String, Value)>> {
        let secs = || {
            prop_oneof![
                (0.0f64..1e6).prop_map(Value::Float),
                any::<i64>().prop_map(Value::Int)
            ]
        };
        let optional = || prop::option::of(corpus::value());
        let fields = (secs(), secs(), optional(), optional());
        (prop::option::of("[a-z ]{0,12}"), fields).prop_map(
            |(error, (start, end, result, shuf))| {
                let state = if error.is_none() { "done" } else { "error" };
                [
                    Some(("state", Value::from(state))),
                    error.map(|e| ("error", Value::from(e))),
                    Some(("start", start)),
                    Some(("end", end)),
                    result.map(|r| ("result", r)),
                    shuf.map(|s| ("shuf", s)),
                ]
                .into_iter()
                .flatten()
                .map(|(k, v)| (k.to_owned(), v))
                .collect()
            },
        )
    }

    /// Entries that repeat, and so override, a written status's own: right
    /// and wrong types under the keys the reader knows, and one it ignores.
    fn overrides() -> impl Strategy<Value = Vec<(String, Value)>> {
        let key = prop::sample::select(vec![
            "state", "error", "start", "end", "result", "shuf", "other",
        ]);
        let value = prop_oneof![
            Just(Value::from("done")),
            Just(Value::from("error")),
            (0.0f64..1e6).prop_map(Value::Float),
            corpus::value(),
        ];
        prop::collection::vec((key.prop_map(str::to_owned), value), 0..3)
    }

    /// A `shuf` entry, encoded: a manifest as the writer makes one, one
    /// whose `parts` is no list, one that names `parts` twice or not at
    /// all, or no map.
    fn manifest() -> impl Strategy<Value = Vec<u8>> {
        let parts = prop_oneof![
            prop::collection::vec(corpus::value(), 0..6).prop_map(Value::List),
            corpus::value(),
        ];
        let key = prop::sample::select(vec!["parts", "parts", "k", "n"]);
        let entries = prop::collection::vec((key.prop_map(str::to_owned), parts), 0..4);
        prop_oneof![
            entries.prop_map(|entries| corpus::encode_entries(&entries)),
            corpus::value().prop_map(|v| v.encode().to_vec()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn part_located_by_the_walk_is_the_part_walked_to(
            status in written_status(),
            manifests in prop::collection::vec(manifest(), 0..3),
            part in 0usize..8,
            damage in corpus::damage(),
        ) {
            let encoded = |(k, v): (String, Value)| (k, v.encode().to_vec());
            let shufs = manifests.into_iter().map(|m| ("shuf".to_owned(), m));
            let entries: Vec<_> = status.into_iter().map(encoded).chain(shufs).collect();
            for bytes in corpus::damaged(&corpus::encode_raw_entries(&entries), damage) {
                check_part(&bytes, part).map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn status_reader_matches_the_reference_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
        ) {
            check_status(bytes).map_err(TestCaseError::fail)?;
        }

        #[test]
        fn status_reader_matches_the_reference_on_damaged_statuses(
            status in written_status(),
            overrides in overrides(),
            damage in corpus::damage(),
        ) {
            let entries: Vec<_> = status.into_iter().chain(overrides).collect();
            for bytes in corpus::damaged(&corpus::encode_entries(&entries), damage) {
                check_status(bytes).map_err(TestCaseError::fail)?;
            }
        }

        #[test]
        fn status_reader_matches_the_reference_on_damaged_values(
            v in corpus::value(),
            damage in corpus::damage(),
        ) {
            for bytes in corpus::damaged(&v.encode(), damage) {
                check_status(bytes).map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn status_reader_matches_the_reference_either_side_of_the_depth_limit() {
        for levels in corpus::depths_around_the_limit() {
            // The nest as the whole status (no status, or no value), and as
            // the result of one, a level further down.
            check_status(corpus::nested(levels, true)).unwrap_or_else(|e| panic!("{levels}: {e}"));
            let mut status = corpus::encode_entries(&[
                ("state".to_owned(), Value::from("done")),
                ("start".to_owned(), Value::Int(1)),
                ("end".to_owned(), Value::Int(2)),
            ]);
            status[1] += 1;
            status.extend_from_slice(&6u32.to_le_bytes());
            status.extend_from_slice(b"result");
            status.extend_from_slice(&corpus::nested(levels - 1, false));
            check_status(status).unwrap_or_else(|e| panic!("{levels} under `result`: {e}"));
        }
    }

    /// A job's statuses land under exactly the keys `status_key` formats:
    /// other spellings of a task number, and other objects of a task, are
    /// not statuses. A future watched twice lands once, as the last of the
    /// two.
    #[test]
    fn status_watch_lands_only_canonical_status_keys() {
        let cloud = crate::SimCloud::builder().seed(3).build();
        cloud.store().ensure_bucket("bkt");
        let landed = cloud.run(|| {
            let cos = CosClient::new(cloud.store(), rustwren_sim::NetworkProfile::lan(), 3);
            for key in [
                "t3/status",
                "t000003/status",
                "t00003/status.tmp",
                "t00003/result",
                "t+0003/status",
                "t00007/status",
                "t123456/status",
            ] {
                let key = format!("jobs/e3/2/{key}");
                cos.put("bkt", &key, Bytes::from_static(b"x")).expect("put");
            }
            let task = |t| ResponseFuture::new("bkt", "e3", 2, t);
            let watched = [task(3), task(123_456), task(7), task(123_456)];
            let watch = StatusWatch::new(&watched);
            rustwren_sim::task::block_on(watch.landed(&cos)).expect("listed")
        });
        assert_eq!(landed, vec![2, 3]);
    }

    /// The watch before the in-place walk and the task tables: one owned
    /// `ObjectMeta` per listed key, matched through a `HashMap` from
    /// (prefix, task number) to the last index watching it.
    struct ReferenceWatch {
        prefixes: Vec<(String, String)>,
        index: HashMap<(usize, u32), usize>,
    }

    impl ReferenceWatch {
        fn new(futures: &[ResponseFuture]) -> ReferenceWatch {
            let mut prefixes: Vec<(String, String)> = Vec::new();
            let mut index = HashMap::new();
            for (i, f) in futures.iter().enumerate() {
                let prefix = (f.bucket().to_owned(), f.job_prefix());
                let p = match prefixes.iter().position(|p| *p == prefix) {
                    Some(p) => p,
                    None => {
                        prefixes.push(prefix);
                        prefixes.len() - 1
                    }
                };
                index.insert((p, f.task), i);
            }
            ReferenceWatch { prefixes, index }
        }

        async fn landed(&self, cos: &CosClient) -> Result<Vec<usize>, StoreError> {
            let mut landed = Vec::new();
            for (p, (bucket, prefix)) in self.prefixes.iter().enumerate() {
                for meta in cos.list_async(bucket, prefix).await? {
                    let task = meta.key.strip_prefix(prefix.as_str()).and_then(status_task);
                    if let Some(&i) = task.and_then(|t| self.index.get(&(p, t))) {
                        landed.push(i);
                    }
                }
            }
            Ok(landed)
        }
    }

    use rustwren_sim::task::block_on;

    /// Jobs whose prefixes are siblings (`jobs/e/1/`, `jobs/e/10/`) or
    /// share an executor id's first letter, in two buckets.
    const JOBS: [(&str, &str, u64); 4] =
        [("b", "e", 1), ("b", "e", 10), ("b", "ef", 1), ("c", "e", 1)];

    /// Task numbers: a job's first few, either side of 99,999 (whose keys
    /// sort before 5-digit ones past it), and the largest.
    fn task_number() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..12, 99_998u32..100_002, Just(123_456), Just(u32::MAX),]
    }

    /// An object key under one of [`JOBS`]: a task number spelled the
    /// canonical way or another, and a task's leaf or something like one.
    fn listed_key() -> impl Strategy<Value = (usize, String)> {
        let spelling = 0usize..4;
        let leaf = prop::sample::select(vec!["status", "result", "input", "status.tmp"]);
        (0..JOBS.len(), task_number(), spelling, leaf).prop_map(|(job, t, spelling, leaf)| {
            let (_, exec, job_id) = JOBS[job];
            let task = match spelling {
                0 => format!("t{t:05}"),
                1 => format!("t{t}"),
                2 => format!("t{t:06}"),
                _ => format!("t+{t:04}"),
            };
            (job, format!("jobs/{exec}/{job_id}/{task}/{leaf}"))
        })
    }

    /// What `landed` returns over `keys`, with how long its LISTs took in
    /// virtual time, on a fresh store at a fixed seed.
    fn landed_by(
        keys: &[(usize, String)],
        landed: impl FnOnce(&CosClient) -> Result<Vec<usize>, StoreError>,
    ) -> (Vec<usize>, std::time::Duration) {
        let kernel = rustwren_sim::Kernel::new();
        let store = rustwren_store::ObjectStore::new(&kernel);
        for bucket in ["b", "c"] {
            store.ensure_bucket(bucket);
        }
        for (job, key) in keys {
            store
                .put(JOBS[*job].0, key, Bytes::from_static(b"x"))
                .expect("put");
        }
        let cos = CosClient::new(&store, rustwren_sim::NetworkProfile::lan(), 9);
        kernel.run("client", || {
            let listed = landed(&cos).expect("listed");
            (
                listed,
                kernel.now().duration_since(rustwren_sim::SimInstant::ZERO),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The task tables land what the reference lands, in its order,
        /// and the LISTs cost what the reference's did (the same entries
        /// priced, so the same virtual time).
        #[test]
        fn status_watch_matches_the_reference(
            keys in prop::collection::vec(listed_key(), 0..48),
            watched in prop::collection::vec((0..JOBS.len(), task_number()), 0..24),
        ) {
            let watched: Vec<ResponseFuture> = watched
                .into_iter()
                .map(|(job, t)| {
                    let (bucket, exec, job_id) = JOBS[job];
                    ResponseFuture::new(bucket, exec, job_id, t)
                })
                .collect();
            let (reference, tables) = (ReferenceWatch::new(&watched), StatusWatch::new(&watched));
            let reference = landed_by(&keys, |cos| block_on(reference.landed(cos)));
            let tables = landed_by(&keys, |cos| block_on(tables.landed(cos)));
            prop_assert_eq!(tables, reference);
        }
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
        // Once truncated to 32 bits (task 2^32 + 17 resolved as task 17) or
        // wrapped into a job number near 2^64.
        for (key, bad) in [
            ("task", -1),
            ("task", i64::from(u32::MAX) + 1),
            ("task", (1 << 32) + 17),
            ("job", -1),
            ("job", i64::MIN),
        ] {
            let err = ResponseFuture::from_value(&future().to_value().with(key, bad))
                .expect_err("out of range");
            assert!(err.contains(&format!("`{key}`")), "{key} = {bad}: {err}");
        }
        let edge = future().to_value().with("task", i64::from(u32::MAX));
        assert_eq!(
            ResponseFuture::from_value(&edge).map(|f| f.task()),
            Ok(u32::MAX)
        );
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
