//! A blocking convenience client for the allocation daemon.
//!
//! The protocol is full-duplex: while a client is writing its next request,
//! the server may concurrently stream results for earlier submissions.
//! [`Client`] therefore demultiplexes incoming lines into two queues —
//! job results, and everything else (acks, rejections, stats, pongs) — so a
//! caller can pipeline submissions and consume results at its own pace, the
//! pattern the load generator uses.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};

use crate::wire::{
    CancelOutcome, MetricsReply, Request, Response, StatsSnapshot, SubmitRequest, WireOutcome,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server closed the connection.
    Closed,
    /// The server sent a line that is not a valid response.
    Protocol(String),
    /// The server answered a request with an unexpected response type
    /// (boxed: a `Response` carries full allocation stats).
    Unexpected(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Closed => f.write_str("server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The answer to a submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitAck {
    /// Admitted; a result will follow.
    Accepted,
    /// Refused with a `CODE_*` code and machine-readable reason.
    Rejected {
        /// One of the [`crate::wire`] `CODE_*` constants.
        code: u32,
        /// e.g. `"queue_full"`.
        reason: String,
    },
}

/// A blocking connection to the daemon.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    results: VecDeque<(u64, WireOutcome)>,
    control: VecDeque<Response>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let writer = crate::net::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            results: VecDeque::new(),
            control: VecDeque::new(),
        })
    }

    /// Sends one raw request line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.send_raw(&request.encode())
    }

    /// Sends one raw, possibly malformed line verbatim (fault-injection
    /// tests use this to probe the server's error handling).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, line: &str) -> Result<(), ClientError> {
        Ok(crate::net::write_line(&mut self.writer, line)?)
    }

    /// Reads the next line from the server, whatever it is.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Closed);
        }
        Response::parse(line.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Reads until a non-result response arrives, buffering any results
    /// that stream past in the meantime.
    fn next_control(&mut self) -> Result<Response, ClientError> {
        if let Some(response) = self.control.pop_front() {
            return Ok(response);
        }
        loop {
            match self.read_response()? {
                Response::Result { id, outcome } => self.results.push_back((id, outcome)),
                other => return Ok(other),
            }
        }
    }

    /// Submits a job and waits for its admission verdict.  Results of
    /// earlier jobs arriving in between are buffered for [`next_result`].
    ///
    /// [`next_result`]: Client::next_result
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a non-admission response for a
    /// different id.
    pub fn submit(&mut self, submit: SubmitRequest) -> Result<SubmitAck, ClientError> {
        let id = submit.id;
        self.send(&Request::Submit(submit))?;
        match self.next_control()? {
            Response::Accepted { id: got } if got == id => Ok(SubmitAck::Accepted),
            Response::Rejected {
                id: got,
                code,
                reason,
            } if got == id => Ok(SubmitAck::Rejected { code, reason }),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Returns the next job result, in submission order.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected control response.
    pub fn next_result(&mut self) -> Result<(u64, WireOutcome), ClientError> {
        if let Some(result) = self.results.pop_front() {
            return Ok(result);
        }
        loop {
            match self.read_response()? {
                Response::Result { id, outcome } => return Ok((id, outcome)),
                other => self.control.push_back(other),
            }
        }
    }

    /// Cancels a submitted job and reports what state it was found in.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn cancel(&mut self, id: u64) -> Result<CancelOutcome, ClientError> {
        self.send(&Request::Cancel { id })?;
        match self.next_control()? {
            Response::CancelAck { id: got, outcome } if got == id => Ok(outcome),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches a server statistics snapshot.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&Request::Stats)?;
        match self.next_control()? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Fetches the server's telemetry snapshot: request-lifecycle latency
    /// histograms plus dedup counters.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        self.send(&Request::Metrics)?;
        match self.next_control()? {
            Response::Metrics(reply) => Ok(reply),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        match self.next_control()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Reads the next control response, buffering results — for callers
    /// probing error responses directly (fault-injection tests).
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn read_control(&mut self) -> Result<Response, ClientError> {
        self.next_control()
    }

    /// Requests a graceful drain-then-stop and waits for the ack.  Results
    /// of still-outstanding jobs stream back (and are buffered) before the
    /// ack arrives.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unexpected response.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        self.send(&Request::Shutdown)?;
        match self.next_control()? {
            Response::ShutdownAck { drained } => Ok(drained),
            other => Err(ClientError::Unexpected(Box::new(other))),
        }
    }

    /// Number of results already received and buffered.
    #[must_use]
    pub fn buffered_results(&self) -> usize {
        self.results.len()
    }
}
