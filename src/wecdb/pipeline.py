"""Level-1 preprocessing: declarative, hashed, reproducible pipelines.

A :class:`PipelineDescriptor` is an ordered list of stages turning one raw
input line into a token list. The descriptor is bound to a WEC at
registration time and travels with it: its content hash covers the stage
list, every referenced stopword list's content, and the external command's
content hash, so identical hash means identical preprocessing behaviour.

Stages
------
``tokenize(rule_set)``
    Raw line to tokens. Built-in rule sets: ``default`` (split on Unicode
    whitespace, then split leading/trailing punctuation or symbol characters
    into separate tokens, keeping internal hyphens/underscores) and
    ``whitespace`` (plain split).
``case_fold(on|off)``
    Lowercase every token, or the whole line when it comes before tokenize.
``stem(on|off)``
    Porter-stem alphabetic tokens.
``stopword_filter(ref|off)``
    Drop tokens found in the referenced list (``builtin:en`` or
    ``list:<sha16>`` for user-supplied files).
``strip_special(rule_set|off)``
    ``default`` drops tokens with no alphanumeric character.
``external(command, content_hash)``
    Replaces tokenize; after one, it gets the tokens joined by single spaces.
    A user command reads one line on stdin and writes one line of tokens on
    stdout per request; the process is started lazily, kept alive, and
    serialized with a lock, so concurrent callers never interleave lines.
    The command must flush stdout after every line (e.g. ``python3 -u``). A
    stage that has not taken a request and answered it with a line within
    30 s is killed, with every process it started, and the request fails
    with :class:`ExternalStageError`.

``stem``, ``stopword_filter`` and ``strip_special`` need tokens, so they come
after a tokenize or external stage, and a pipeline has one of the two. A
stage that is ``off`` is serialized and hashed but runs nothing.

Serialization is a single line, stages joined by `` | ``, parameters
percent-encoded; it is stable and included verbatim in catalog manifests.
"""

from __future__ import annotations

import atexit
import codecs
import contextlib
import functools
import hashlib
import io
import os
import select
import signal
import subprocess
import threading
import time
import unicodedata
import urllib.parse
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from . import porter
from .errors import ExternalStageError, PipelineError, first_surrogate, read_input_text

BUILTIN_STOPWORDS = "builtin:en"

_HASH_PREFIX = "pipeline-hash-v1"
_EXTERNAL_TIMEOUT_S = 30.0  # longest wait for an external stage's response line


def _is_peelable(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _tokenize_default(line: str) -> list[str]:
    tokens: list[str] = []
    for chunk in line.split():
        # no character that isalnum() accepts is in a P or S category, so
        # such a chunk has nothing to peel (checked for every code point in the tests)
        if chunk[0].isalnum() and chunk[-1].isalnum():
            tokens.append(chunk)
            continue
        lead: list[str] = []
        trail: list[str] = []
        while chunk and _is_peelable(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and _is_peelable(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


_TOKENIZERS: dict[str, Callable[[str], list[str]]] = {
    "default": _tokenize_default,
    "whitespace": str.split,
}


@functools.lru_cache(maxsize=None)
def builtin_stopwords_text() -> str:
    return resources.files("wecdb").joinpath("data/stopwords_en.txt").read_text("utf-8")


def content_ref(content: str) -> str:
    """Stable reference for a user stopword list, derived from its content."""
    return "list:" + hashlib.sha256(content.encode("utf-8")).hexdigest()[:16]


def stopword_list(spec: str | Path) -> tuple[str, str]:
    """``(ref, text)`` of a stopword list: ``"en"`` (or its ref) is the
    bundled list, anything else a path to a UTF-8 file, read without a
    leading byte-order mark."""
    if spec == "en" or spec == BUILTIN_STOPWORDS:
        return BUILTIN_STOPWORDS, builtin_stopwords_text()
    text = read_input_text(spec, PipelineError)
    return content_ref(text), text


@dataclass(frozen=True)
class Stage:
    name: str
    params: tuple[str, ...]

    def serialize(self) -> str:
        quoted = ",".join(urllib.parse.quote(p, safe="") for p in self.params)
        return f"{self.name}({quoted})"


@dataclass(frozen=True)
class PipelineDescriptor:
    """Ordered stage list plus the resource contents its hash must cover.

    ``resources`` maps stopword-list refs to their full text. Instances are
    immutable; ``steps`` (what :func:`run_pipeline` runs, one per stage that
    is on) and ``hash`` are built once at construction.
    """

    stages: tuple[Stage, ...]
    resources: tuple[tuple[str, str], ...] = ()
    steps: tuple[Callable, ...] = field(init=False, default=(), repr=False, compare=False)
    hash: str = field(init=False, default="")

    def __post_init__(self):
        object.__setattr__(self, "steps", _build_steps(self.stages, self.resources))
        object.__setattr__(self, "hash", self._compute_hash())

    def __reduce__(self):
        # steps are lambdas, which do not pickle: rebuild them on load
        return (PipelineDescriptor, (self.stages, self.resources))

    def _compute_hash(self) -> str:
        h = hashlib.sha256()
        h.update(_HASH_PREFIX.encode())
        h.update(b"\n")
        h.update(self.serialize().encode("utf-8"))
        for ref, content in sorted(self.resources):
            h.update(b"\x00resource\x00")
            h.update(ref.encode("utf-8"))
            h.update(b"\x00")
            h.update(content.encode("utf-8"))
        return h.hexdigest()

    def serialize(self) -> str:
        return " | ".join(stage.serialize() for stage in self.stages)

    @property
    def case_fold_enabled(self) -> bool:
        return any(s.name == "case_fold" and s.params == ("on",) for s in self.stages)

    @property
    def stem_enabled(self) -> bool:
        return any(s.name == "stem" and s.params == ("on",) for s in self.stages)


def _build_steps(
    stages: tuple[Stage, ...], resources: tuple[tuple[str, str], ...]
) -> tuple[Callable, ...]:
    """Check the stage list once and return the step of each stage that is on.

    Until a ``tokenize`` or ``external`` stage the value is the raw line,
    from there on a token list, so each step is built for the one shape it
    gets. Steps look ``porter.stem`` and ``_external_for`` up when they run.
    """
    stopword_texts = dict(resources)
    steps: list[Callable] = []
    have_tokens = False
    for stage in stages:
        name, params = stage.name, stage.params
        if name == "tokenize":
            if have_tokens:
                raise PipelineError("tokenize stage after input is already tokenized")
            if len(params) != 1 or params[0] not in _TOKENIZERS:
                raise PipelineError(f"unknown tokenize rule set {params!r}")
            steps.append(_TOKENIZERS[params[0]])
            have_tokens = True
        elif name == "external":
            if len(params) != 2:
                raise PipelineError("external stage needs (command, content_hash)")
            if have_tokens:
                steps.append(" ".join)
            steps.append(lambda line, cmd=params[0]: _external_for(cmd).process_line(line))
            have_tokens = True
        elif name == "case_fold":
            if params not in (("on",), ("off",)):
                raise PipelineError(f"case_fold parameter must be on/off, got {params!r}")
            if params == ("on",):
                steps.append((lambda ts: [t.lower() for t in ts]) if have_tokens else str.lower)
        elif name == "stem":
            if params not in (("on",), ("off",)):
                raise PipelineError(f"stem parameter must be on/off, got {params!r}")
            if params == ("on",):
                if not have_tokens:
                    raise PipelineError("stem stage requires tokenized input")
                steps.append(
                    lambda ts: [porter.stem(t) if t.isascii() and t.isalpha() else t for t in ts]
                )
        elif name == "stopword_filter":
            if len(params) != 1:
                raise PipelineError("stopword_filter takes one parameter")
            ref = params[0]
            if ref != "off":
                if not have_tokens:
                    raise PipelineError("stopword_filter stage requires tokenized input")
                if ref not in stopword_texts:
                    raise PipelineError(f"stopword list {ref!r} has no resolved content")
                stops = frozenset(stopword_texts[ref].split())
                steps.append(lambda ts, stops=stops: [t for t in ts if t not in stops])
        elif name == "strip_special":
            if params not in (("default",), ("off",)):
                raise PipelineError(f"unknown strip_special rule set {params!r}")
            if params == ("default",):
                if not have_tokens:
                    raise PipelineError("strip_special stage requires tokenized input")
                steps.append(lambda ts: [t for t in ts if any(ch.isalnum() for ch in t)])
        else:
            raise PipelineError(f"unknown stage {name!r}")
    if not have_tokens:
        raise PipelineError("pipeline must contain a tokenize or external stage")
    return tuple(steps)


def build_pipeline(
    *,
    tokenizer: str = "default",
    case_fold: bool = False,
    stem: bool = False,
    stopwords: str | Path | None = None,
    strip_special: bool = False,
    external: tuple[str, str | Path | None] | None = None,
) -> PipelineDescriptor:
    """Assemble a descriptor from simple options.

    ``stopwords`` is ``None`` (off), ``"en"`` (bundled list), or a path to a
    UTF-8 file with one token per line; the file's content, without a
    leading byte-order mark, is captured into the descriptor immediately.
    ``external`` is ``(command, script_path)``; when ``script_path`` is given
    its bytes are hashed, otherwise the command string itself is. An external command replaces the tokenize stage.
    """
    stages: list[Stage] = []
    if external is not None:
        command, script = external
        if first_surrogate(command):  # the manifest records it as UTF-8 text
            raise PipelineError("external command is not UTF-8 text")
        content = command.encode("utf-8") if script is None else Path(script).read_bytes()
        digest = hashlib.sha256(content).hexdigest()[:16]
        stages.append(Stage("external", (command, digest)))
    else:
        stages.append(Stage("tokenize", (tokenizer,)))
    stages.append(Stage("case_fold", ("on" if case_fold else "off",)))
    stages.append(Stage("stem", ("on" if stem else "off",)))
    ref, text = ("off", None) if stopwords is None else stopword_list(stopwords)
    stages.append(Stage("stopword_filter", (ref,)))
    stages.append(Stage("strip_special", ("default" if strip_special else "off",)))
    return PipelineDescriptor(tuple(stages), () if text is None else ((ref, text),))


def pipeline_for_identifier(ident, **options) -> PipelineDescriptor:
    """Default pipeline implied by a WEC's metadata.

    ``fold:1`` turns case folding on; ``unit:stem`` turns stemming on. Other
    options pass through to :func:`build_pipeline`.
    """
    return build_pipeline(
        case_fold=ident.fold == 1,
        stem=ident.unit == "stem",
        **options,
    )


def parse_pipeline(text: str, resolver: Callable[[str], str]) -> PipelineDescriptor:
    """Inverse of :meth:`PipelineDescriptor.serialize`.

    ``resolver`` maps a stopword-list ref to its content text (the catalog
    resolves ``list:*`` refs against its own directory); it is called once
    per distinct ref on every call, so a changed list gives a new descriptor
    and hash.
    """
    stages: list[Stage] = []
    refs: dict[str, None] = {}
    for part in text.split(" | "):
        part = part.strip()
        if not part.endswith(")") or "(" not in part:
            raise PipelineError(f"malformed stage {part!r}")
        name, _, rest = part.partition("(")
        params = tuple(
            urllib.parse.unquote(p) for p in rest[:-1].split(",")
        ) if rest[:-1] else ()
        if name == "stopword_filter" and params and params[0] != "off":
            refs[params[0]] = None
        stages.append(Stage(name, params))
    return PipelineDescriptor(tuple(stages), tuple(sorted((ref, resolver(ref)) for ref in refs)))


class PreprocessCache:
    """Memo from (pipeline hash, raw line) to its token list.

    Shared across retrievals so WECs with identical pipelines preprocess
    each distinct input line once. Thread-safe; unbounded (desk-scale
    inputs; callers own the lifetime).
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], tuple[str, ...]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, pipeline_hash: str, raw: str) -> tuple[str, ...] | None:
        with self._lock:
            entry = self._entries.get((pipeline_hash, raw))
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, pipeline_hash: str, raw: str, tokens: Iterable[str]) -> None:
        with self._lock:
            self._entries[(pipeline_hash, raw)] = tuple(tokens)

    def __len__(self) -> int:
        return len(self._entries)


class _ExternalProcess:
    """One persistent external-stage process, one request/response at a time.

    A request is written to and its response line read from the pipes' file
    descriptors, so that both waits can be bounded: a stage that has not
    taken the request and given a whole line back within
    ``_EXTERNAL_TIMEOUT_S`` seconds is killed with every process it started,
    and the next request starts a fresh one. Text is encoded, decoded and
    its newlines translated as ``proc.stdin.write()`` and
    ``proc.stdout.readline()`` would do it.
    """

    def __init__(self, command: str):
        self.command = command
        self.lock = threading.Lock()
        self.proc: subprocess.Popen | None = None
        self._decoder: io.IncrementalNewlineDecoder | None = None
        self._pending = ""  # decoded output not yet returned as a line

    def _ensure_started(self) -> subprocess.Popen:
        if self.proc is None or self.proc.poll() is not None:
            self.close()
            self.proc = subprocess.Popen(
                self.command,
                shell=True,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                start_new_session=True,  # its own process group, killed as one
            )
            os.set_blocking(self.proc.stdin.fileno(), False)  # writes wait in poll(), not write()
            decoder = codecs.getincrementaldecoder(self.proc.stdout.encoding)
            self._decoder = io.IncrementalNewlineDecoder(
                decoder(self.proc.stdout.errors), translate=True
            )
            self._pending = ""
        return self.proc

    def process_line(self, line: str) -> list[str]:
        with self.lock:
            proc = self._ensure_started()
            deadline = time.monotonic() + _EXTERNAL_TIMEOUT_S
            try:
                self._write_line(proc, line.replace("\n", " ") + "\n", deadline)
                out = self._read_line(proc, deadline)
            # text that the pipe's encoding cannot carry fails before any write
            except (OSError, UnicodeEncodeError) as exc:
                raise ExternalStageError(
                    f"external stage {self.command!r} failed: {exc}"
                ) from exc
            if out == "":
                code = proc.poll()
                raise ExternalStageError(
                    f"external stage {self.command!r} closed its output"
                    + (f" (exit code {code})" if code is not None else "")
                )
            return out.split()

    def _write_line(self, proc: subprocess.Popen, line: str, deadline: float) -> None:
        """Write ``line`` to the stage, as much at a time as its pipe takes."""
        fd = proc.stdin.fileno()
        data = memoryview(line.encode(proc.stdin.encoding, proc.stdin.errors))
        while data:
            self._wait(proc, fd, select.POLLOUT, deadline)
            try:
                data = data[os.write(fd, data) :]
            except BlockingIOError:
                pass  # the pipe filled up again; wait for it

    def _read_line(self, proc: subprocess.Popen, deadline: float) -> str:
        """The next output line with its newline, or what is left at end of output."""
        fd = proc.stdout.fileno()
        while (end := self._pending.find("\n")) < 0:
            self._wait(proc, fd, select.POLLIN, deadline)
            chunk = os.read(fd, 65536)
            self._pending += self._decoder.decode(chunk, final=not chunk)
            if not chunk:  # end of output
                out, self._pending = self._pending, ""
                return out
        out, self._pending = self._pending[: end + 1], self._pending[end + 1 :]
        return out

    def _wait(self, proc: subprocess.Popen, fd: int, event: int, deadline: float) -> None:
        """Wait for ``event`` on ``fd``; past ``deadline``, stop the stage and raise."""
        ready = select.poll()  # unlike select(), works for any descriptor number
        ready.register(fd, event)
        wait = deadline - time.monotonic()
        if wait <= 0 or not ready.poll(wait * 1000):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            self.close()
            raise ExternalStageError(
                f"external stage {self.command!r} did not answer"
                f" within {_EXTERNAL_TIMEOUT_S:g} s and was stopped"
            )

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass  # an exited process cannot take what is left in the buffer
        proc.wait(timeout=5)


_external_registry: dict[str, _ExternalProcess] = {}
_external_registry_lock = threading.Lock()


def _external_for(command: str) -> _ExternalProcess:
    with _external_registry_lock:
        runner = _external_registry.get(command)
        if runner is None:
            runner = _ExternalProcess(command)
            _external_registry[command] = runner
        return runner


@atexit.register
def _shutdown_external_processes() -> None:
    for runner in _external_registry.values():
        try:
            runner.close()
        except Exception:
            pass


def run_pipeline(
    p: PipelineDescriptor, raw: str, cache: PreprocessCache | None = None
) -> list[str]:
    """Run one raw line through the pipeline; deterministic for a given hash.

    Results with and without a cache are identical; the cache is consulted
    before any stage runs and updated afterwards.
    """
    if cache is not None:
        cached = cache.get(p.hash, raw)
        if cached is not None:
            return list(cached)
    value = raw
    for step in p.steps:
        value = step(value)
    if cache is not None:
        cache.put(p.hash, raw, value)
    return value
