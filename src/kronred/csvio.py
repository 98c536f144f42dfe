"""Trajectories and their CSV files: one module for the file format.

Trajectories are written as CSV by trajectory_to_csv and
write_trajectories: csv_body formats blocks of CSV_BLOCK_VALUES values
in numpy, byte for byte as Python's float repr, over row ranges in up to
one forked process per CPU (_write_csv). They are read back by
np.loadtxt over byte ranges in the same way (trajectory_from_csv). The
header is written and read by one rule (_csv_header), and the writer
refuses a channel that would not read back by it.

csv_body(block) is ",".join(map(repr, row)) + "\\n" over the rows of a
(rows, cols) float64 block, as ASCII bytes, computed in numpy. repr prints
the shortest digits that read back to the double, the nearest of them.
Ryu (U. Adams, PLDI 2018, doi:10.1145/3192366.3192369) finds them in
integer arithmetic: for a double 4 m2 2^e2, m2 its 53-bit significand,
the bounds of the interval that rounds to it, scaled by 10^-e10, are
vm < vr < vp, the floors of (4 m2 + d) t for d = -2, 0, 2 and
t = 5^i / 2^q. Removing the k digits on which vp and vm differ and
rounding vr gives the digits; the decimal exponent is e10 + k.

The fast path is Ryu's e2 < 0 branch without its trailing-zero cases:
normal doubles below 2^50, other than powers of two, whose interval
bounds are not exact decimals there. Every value of a block goes through
the digit pipeline, and repr then overwrites the slot of each other value
(+-0.0, subnormals, nan, inf, 2^50 and above, powers of two, round values
such as 0.5 or 120.0), whose computed digits are not used. A fast value
is never integral and below 10^16, so its layout is repr's 0.000ddd or
ddd.ddd (-4 < decpt <= 16) or d.ddde-XX (two exponent digits or more).

Error budget of the bounds. X = 4 m2 t is formed from 26-bit limbs of
T = floor(4 t 2^121) (10 <= t < 100, so T < 2^130) and of m2, without
the lowest limb product, and its fraction is kept in 64 bits: the
computed X' = vr + f / 2^64 falls short of X by less than 2^-68 (T's
truncation, times m2 < 2^53) + 2^-69 (the product left out) + 2^-69
(the limb below the kept columns) + 2^-64 (the fraction's last bits),
under 1.125 units of 2^-64. vp and vm add floor(2t 2^64) and subtract
floor(2t 2^64) + 1, each within one more unit of 2t and on the same
side, so each computed bound falls short of its exact value by less
than 2.125 units. Its floor is then exact unless its fraction is within
that of the next integer: a value with a fraction of vr, vp or vm above
2^64 - 1 - _GUARD units is certified not, and written by repr instead.
No double gets there: over every fast-path significand, the bounds lie
at least 2^-61.7 above and 2^-61.2 below an integer, 4.9 and 7.2 units
(tests/test_floatrepr.py finds the nearest at each exponent). So every
floor is exact, and the guard band only stands behind this budget.
"""

import contextlib
import functools
import io
import itertools
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputFormatError

# Values per formatted CSV block (csv_body), whose temporaries
# hold about 250 bytes per value. On a 2-core VM, writing one paper-experiment
# call's 7 files took 328, 299, 286 and 323 ns per value in one process at
# 4096, 8192, 16384 and 32768 values, and 214, 211, 194 and 196 ns in two
# (medians of 15 alternating rounds; the 15 x 15 grid's files alike). Each
# numpy call costs more at the small sizes, and the temporaries fall out of
# cache at the large ones; children peak 3 MB higher at 32768.
CSV_BLOCK_VALUES = 16384

# Least CSV work per process: values to format, and body bytes to parse. Timed
# with 1 and 2 CPUs in a 64 MB process on a 2-CPU VM (medians of 41 rounds,
# sizes interleaved), one process wrote a 7-column file of 20000, 40000, 50000
# and 80000 values in 9.0, 17.5, 22.4 and 34.7 ms, and two in 11.6, 17.1, 19.8
# and 26.0 ms, faster in 0, 21, 33 and 39 rounds: writes break even near 40000
# values, so two processes start at 50000. One process read 7-column files of
# 0.95, 1.9 and 2.9 MB in 13.6, 27.5 and 40.2 ms and two in 18.6, 32.2 and 45.4
# ms; at 3.8 MB both took 57 ms. Reads are cut at 2 MB so that the 4.3 MB and
# 12 MB files of a 15 x 15 grid run still fork, where the second CPU is free.
CSV_WRITE_VALUES_PER_PROCESS = 25_000
CSV_READ_BYTES_PER_PROCESS = 2_000_000

# Lines per np.loadtxt call of the diagnostic of a CSV file that did not
# parse (_csv_fault). On a 2-core VM, trajectory_from_csv reported a bad last
# cell of a 50000 x 7 CSV in 225, 210, 203, 202 and 214 ms at 128, 256, 512,
# 1024 and 4096 lines, and in 391 ms at one line per call; the good file read
# in 65 ms (medians of 11 rounds, sizes interleaved).
CSV_FAULT_BLOCK_LINES = 1024

_U = np.uint64
_POW10 = _U(10) ** np.arange(20, dtype=_U)

# T keeps 121 fraction bits of 4 t, in five 26-bit limbs: each limb product
# stays below 2^53 and a column of two below 2^54, so columns need no split.
_SHIFT = 121
_LIMB = 26
_MASK = _U((1 << _LIMB) - 1)
# A fraction this close to the next integer (in units of 2^-64, more than
# the 2.125 units a computed bound can fall short by) leaves it to repr.
_GUARD = 4

# A value is laid out in 56 bytes: 3 pad, 21 digits (a 0, then five
# four-digit groups), 4 pad, the same 20 digits, and its tail: the
# separator, after "e-XX" in exponent notation. A "-" goes just before
# the first digit of the first copy and a "." over the digit before the
# dot in the second, so that a mask keyed by (first byte, digit before the
# dot, dot or none, tail length) keeps two runs: the sign and the digits up
# to the dot from the first copy, the dot, the rest and the tail from the
# second. A value written by repr fills its slot from byte 0 with its
# characters and the separator, kept by the mask keyed by its length. The
# block is one compress.
_DIGITS = 21
_REPR = (_DIGITS + 1) * _DIGITS * 2 * 3  # the mask of a repr of length L is _REPR + L
_DECPT = 340  # shapes are indexed by (decpt + _DECPT) * 18 + digit count


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled named channels over time."""

    times: np.ndarray
    data: np.ndarray      # (n_samples, n_channels)
    channels: tuple

    def channel(self, name):
        try:
            j = self.channels.index(name)
        except ValueError:
            raise InputFormatError(f"no channel {name!r}") from None
        return self.data[:, j]

    def channels_with_prefix(self, prefix):
        return tuple(c for c in self.channels if c.startswith(prefix))

    def select(self, names):
        idx = [self.channels.index(n) for n in names]
        return Trajectory(self.times, self.data[:, idx], tuple(names))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t,<channels>` rows as UTF-8, with shortest round-trip float
    formatting, byte for byte as Python's repr writes it (csv_body, in
    numpy; a value off its fast path goes to repr itself, the rest of its
    row staying in numpy). The rows are formatted by up to one process per
    available CPU, over row ranges (_write_csv), and the bytes are those of
    a one-process write. A channel that would not read back from the
    header is an InputFormatError, and no file is written."""
    _write_csv([(traj, path)])


def write_trajectories(trajectories: dict, out_dir) -> list:
    """Write each named trajectory to <out_dir>/<name>.csv, as
    trajectory_to_csv writes it, making out_dir and its parents where
    missing; returns the paths in the dict's order. One set of processes
    formats the rows of every file (_write_csv)."""
    jobs = [(traj, Path(out_dir) / f"{name}.csv") for name, traj in trajectories.items()]
    _write_csv(jobs, out_dir)
    return [path for _, path in jobs]


def _write_csv(jobs, out_dir=None):
    """Write each (trajectory, path) in order, from _workers(total values,
    CSV_WRITE_VALUES_PER_PROCESS) processes.

    First every file's header is checked to read back as its channels
    (_csv_header_line), and only then is out_dir, where given, made with
    its parents: a header that would not read back leaves no file and no
    directory behind.

    Every file's rows are cut into one contiguous range per process.
    Forked child w formats range w of every file, in file order, and
    sends each range's bytes here as one message (_forked). This process
    is the only one that opens files, in binary: each gets its UTF-8
    header, then its ranges in order, by one rule: a range's message if
    one arrives whole, else the range formatted here (_csv_range). Range
    0 has no child, so it is always formatted here; a child that fails
    sends nothing more, so the rest of its work is formatted here too. So
    the bytes are those of a one-process write, and a file that cannot be
    written raises what a one-process write raises.
    """
    headers = [_csv_header_line(traj, path) for traj, path in jobs]
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    values = sum(traj.times.size * (1 + traj.data.shape[1]) for traj, _ in jobs)
    n = _workers(values, CSV_WRITE_VALUES_PER_PROCESS)
    with _forked(n, lambda w: (b"".join(_csv_range(traj, w, n)) for traj, _ in jobs)) as pipes:
        for (traj, path), header in zip(jobs, headers):
            with open(path, "wb") as fh:
                fh.write(header)
                for w, pipe in enumerate([None] + pipes):
                    text = _receive(pipe)
                    fh.writelines(_csv_range(traj, w, n) if text is None else [text])


def _csv_header_line(traj, path):
    """The UTF-8 header line of traj's CSV file at path, checked to read
    back as t and the channels by the reader's rule (_csv_header);
    InputFormatError naming the file and the first channel that does not."""
    line = ("t," + ",".join(traj.channels) + "\n").encode("utf-8")
    cells = _csv_header(line)[0]
    if cells != ["t", *traj.channels]:
        name = next((c for c, cell in zip(traj.channels, cells[1:]) if c != cell), None)
        what = "a trajectory without channels" if name is None else f"channel {name!r}"
        raise InputFormatError(f"{path}: {what} would not read back from the CSV header, which ends at the"
                               " first CR or LF, loses white space at its ends and is split at commas")
    return line


def _csv_header(line):
    """(cells, length) of a CSV header, from the bytes of the file's first
    line: the line up to its first CR or LF, decoded as UTF-8, stripped of
    white space and split at commas. The body starts length bytes in,
    after that CR, LF or CRLF. Headers are written and read by this rule."""
    first = re.match(rb"[^\r\n]*(\r\n?|\n)?", line)
    return first[0].decode("utf-8").strip().split(","), first.end()


def _csv_head(raw):
    """The bytes of the seekable binary file raw from its start that hold
    its header line, for _csv_header: read io.DEFAULT_BUFFER_SIZE bytes at
    a time until they hold an LF, a CR with a byte after it (so a CRLF
    split across two reads stays whole) or the file's end. Not readline,
    which stops only at LF and so reads a lone-CR file whole."""
    raw.seek(0)
    head = bytearray()
    while True:
        more = raw.read(io.DEFAULT_BUFFER_SIZE)
        last = head[-1:] + more  # this read and the byte before it
        head += more
        if not more or b"\n" in last or b"\r" in last[:-1]:
            return bytes(head)


def _csv_range(traj, w, n):
    """The CSV lines of row range w of n, as ASCII bytes, one _csv_text
    block of about CSV_BLOCK_VALUES values at a time."""
    start, stop = traj.times.size * w // n, traj.times.size * (w + 1) // n
    rows = max(1, CSV_BLOCK_VALUES // (1 + traj.data.shape[1]))
    for first in range(start, stop, rows):
        yield _csv_text(traj, first, min(first + rows, stop))


def _csv_text(traj, first, end):
    """The CSV lines of rows first to end - 1, as ASCII bytes (csv_body)."""
    return csv_body(np.column_stack([traj.times[first:end], traj.data[first:end]]))


def _available_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(size, per_process):
    """Processes for CSV work of the given size (values to write, or
    bytes to read): one per available CPU, but none beyond one per
    per_process of the size, and one where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_available_cpus(), size // per_process))


@contextlib.contextmanager
def _forked(n, messages):
    """Fork children 1 to n - 1 of this process and yield, in order, the
    read end of each one's pipe (None where no child could be made).

    Child w sends each message of messages(w), a bytes object or a 1-D
    uint8 array, here over its own pipe, length-prefixed, and leaves by
    os._exit: 0 once all are sent, 1 on any exception. It never returns
    into the caller's code, prints nothing, and neither flushes inherited
    stdio buffers nor runs atexit handlers. Children format and parse CSV
    only, so they never enter a BLAS thread pool inherited through the
    fork.

    _receive(pipe) returns the child's next message, or None from the
    first one that does not arrive whole: the fork failed, or the child
    raised (so exits 1) or was killed, and its pipe closed early. Leaving
    the block closes every pipe, so a child still sending stops, and
    reaps every child, also when SIGCHLD is ignored.
    """
    children = []  # (pid, pipe), or (None, None) where no child could be made
    try:
        for w in range(1, n):
            try:
                r, wfd = os.pipe()
            except OSError:  # no descriptor to spare: this process does child w's work
                children.append((None, None))
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to spare: likewise
                os.close(r)
                os.close(wfd)
                children.append((None, None))
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, pipe in children:  # a sibling's pipe must close when this process closes it
                        if pipe is not None:
                            pipe.close()
                    with open(wfd, "wb") as out:
                        for message in messages(w):
                            out.write(len(message).to_bytes(8, "little"))
                            out.write(message)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append((pid, open(r, "rb")))
        yield [pipe for _, pipe in children]
    finally:
        for _, pipe in children:
            if pipe is not None:
                pipe.close()
        for pid, _ in children:
            if pid is not None:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:  # reaped by the system, as when SIGCHLD is ignored
                    pass


def _receive(pipe):
    """The next length-prefixed message on pipe, or None where none
    arrives whole."""
    size = _message_size(pipe)
    message = b"" if size is None else pipe.read(size)
    return message if len(message) == size else None


def _message_size(pipe):
    """The length prefix of the next message on pipe, or None where none
    arrives."""
    head = b"" if pipe is None else pipe.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory_to_csv file; non-UTF-8 content or a bad header,
    row or cell is an InputFormatError. The body is parsed over byte
    ranges by up to one process per available CPU (_parse_csv), a FIFO or
    a pipe from a copy; only a failed parse reads the file again, line by
    line, for the diagnostic (_csv_fault)."""
    with open(path, "rb") as given, _seekable(given) as raw:
        try:
            return _parse_csv(raw)
        except ValueError:  # UnicodeDecodeError too
            raise _csv_fault(raw, path) from None


def _seekable(fh):
    """fh, or, where it cannot be seeked, an unnamed temporary file
    holding the bytes it has left."""
    if fh.seekable():
        return fh
    copy = tempfile.TemporaryFile()
    shutil.copyfileobj(fh, copy)
    copy.seek(0)
    return copy


def _parse_csv(raw):
    """The trajectory in the seekable binary file raw, parsed by
    _workers(body bytes, CSV_READ_BYTES_PER_PROCESS) processes;
    ValueError where any part of it does not parse.

    The header is read by _csv_header's rule. The body is cut after an LF
    byte into one range per process (a UTF-8 multibyte sequence never
    holds LF, and a CRLF ends before its cut); where a range's length
    holds no LF, as in a lone-CR file, the range before runs on. This
    process parses range 0, and forked child w parses range w
    (_parse_rows) and sends its rows as float64 bytes: a uint8 view of
    its array, as a copy would hold them twice. One loop takes each
    child's range by the writer's rule: its message if it arrives whole,
    else the range parsed here.

    Range 0's array grows in place (realloc) and each message is read
    straight into it: joined parts would hold the rows twice (2 GiB at
    MAX_RUN_BYTES), and a freed block of megabytes raises glibc's dynamic
    mmap threshold, so later arrays of that size grow the heap instead.
    """
    header, body = _csv_header(_csv_head(raw))
    if header[0] != "t":
        raise ValueError("the first column is not t")
    size = raw.seek(0, os.SEEK_END)
    n = _workers(size - body, CSV_READ_BYTES_PER_PROCESS)
    cuts = [body]
    for w in range(1, n):
        raw.seek(body + (size - body) * w // n)
        if raw.readline((size - body) // n).endswith(b"\n"):
            cuts.append(raw.tell())
    cuts.append(size)
    width = len(header)

    def rows(w):
        return _parse_rows(_ByteRange(raw.fileno(), cuts[w], cuts[w + 1]), width)

    with _forked(len(cuts) - 1, lambda w: [rows(w).reshape(-1).view(np.uint8)]) as pipes:
        arr = rows(0)
        for w, pipe in enumerate(pipes, 1):
            nbytes, start = _message_size(pipe), len(arr)
            part = rows(w) if nbytes is None else None
            count = len(part) if nbytes is None else nbytes // (8 * width)
            arr.resize((start + count, width), refcheck=False)  # loadtxt's array owns its data
            if nbytes is None or pipe.readinto(arr[start:]) != arr[start:].nbytes:
                arr[start:] = rows(w) if part is None else part
    if not arr.size:
        raise ValueError("no samples")
    return Trajectory(arr[:, 0], arr[:, 1:], tuple(header[1:]))


class _ByteRange(io.RawIOBase):
    """Bytes start to stop - 1 of the file open as fd, read by pread, which
    neither reads nor moves the descriptor's offset."""

    def __init__(self, fd, start, stop):
        self.fd, self.pos, self.stop = fd, start, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        data = os.pread(self.fd, min(len(buffer), self.stop - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _parse_rows(raw, width):
    """The rows of CSV body bytes in the binary stream raw, decoded as
    UTF-8 with universal newlines and parsed by np.loadtxt, blank lines
    skipped (a range without rows is 0 x 1); ValueError unless each row
    has width cells."""
    with warnings.catch_warnings():  # loadtxt warns of a range without rows
        warnings.simplefilter("ignore", UserWarning)
        arr = np.loadtxt(io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8"),
                         delimiter=",", comments=None, ndmin=2)
    if arr.size and arr.shape[1] != width:
        raise ValueError(f"{arr.shape[1]} columns, {width} expected")
    return arr


def _csv_fault(raw, path) -> InputFormatError:
    """The error for the CSV file raw (binary, seekable) that did not
    parse: non-UTF-8 bytes, a first column not named t, the first bad
    line (universal newlines, blank lines counted), or no samples. The
    body is parsed CSV_FAULT_BLOCK_LINES lines per np.loadtxt call, and
    line by line only inside the first block that does not parse whole."""
    try:
        header, body = _csv_header(_csv_head(raw))
        if header[0] != "t":
            return InputFormatError(f"{path}: first CSV column must be 't'")
        raw.seek(body)
        with io.TextIOWrapper(raw, encoding="utf-8") as fh:  # closes raw
            start = 2
            while True:
                lines, undecoded = [], None
                try:
                    lines.extend(itertools.islice(fh, CSV_FAULT_BLOCK_LINES))
                except UnicodeDecodeError as exc:  # raised after the lines before it are checked
                    undecoded = exc
                if undecoded or not lines or not _csv_block_parses(lines, header):
                    break
                start += len(lines)
            for lineno, line in enumerate(lines, start=start):
                try:
                    cells = np.loadtxt([line], delimiter=",", comments=None, ndmin=1) if line != "\n" else None
                except ValueError as exc:  # loadtxt's row number, cut from its message, would skip blank lines
                    return InputFormatError(f"{path}, line {lineno}: {str(exc).partition(' at row')[0]}")
                if cells is not None and cells.size != len(header):
                    return InputFormatError(f"{path}, line {lineno}: ragged CSV, {len(header)} columns expected")
            if undecoded:
                raise undecoded
    except UnicodeDecodeError as exc:
        return InputFormatError(f"{path} is not UTF-8 text: {exc.reason}")
    return InputFormatError(f"{path}: no samples")


def _csv_block_parses(lines, header):
    """Whether the lines that are not blank parse as rows of one cell per
    header cell, in one np.loadtxt call."""
    rows = [line for line in lines if line != "\n"]
    try:
        return not rows or np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).shape == (len(rows), len(header))
    except ValueError:
        return False


@functools.cache
def _tables():
    """Per biased exponent E: T in 26-bit limbs; floor(2t 2^64) as its
    integer part, its fraction and the fraction's complement; e10; the
    mantissa bits of Ryu's trailing-zero test (0 off the fast path). The
    layout's parts: four-digit groups, tails by exponent (0: none) and
    separator (+400: a newline), masks."""
    limbs = np.zeros((5, 2048), dtype=_U)
    two_t = np.zeros((3, 2048), dtype=_U)
    e10 = np.zeros(2048, dtype=np.int64)
    low = np.zeros(2048, dtype=_U)
    for E in range(1, 1073):
        e2 = E - 1077
        q = (-e2 * 732923 >> 20) - 1  # floor(-e2 log10 5) - 1, Ryu's q
        scaled = 5 ** (-e2 - q) << (_SHIFT + 2) >> q
        limbs[:, E] = [scaled >> (_LIMB * j) & int(_MASK) for j in range(5)]
        D = 5 ** (-e2 - q) << 65 >> q
        two_t[:, E] = [D >> 64, D & (2**64 - 1), ~D & (2**64 - 1)]
        e10[E] = q + e2
        # mant & low != 0: 2^q does not divide 4 m2, and m2 is no power of two
        low[E] = (1 << min(q - 2, 52)) - 1
    groups = np.frombuffer("".join(f"{g:04d}" for g in range(10_000)).encode(), dtype=np.uint32)
    exps = [b"e-%02d" % e if e else b"" for e in range(400)]
    tails = np.frombuffer(b"".join([(x + sep).ljust(8, b"\0") for sep in (b",", b"\n") for x in exps]), dtype=_U)
    lead, end, nodot, tail = (a.ravel()[:, None] for a in np.meshgrid(
        range(_DIGITS + 1), range(_DIGITS), [0, 1], range(3), indexing="ij"))
    j = np.arange(56)
    masks = np.empty((_REPR + 25, 56), dtype=bool)
    masks[:_REPR] = ((j >= 2 + lead) & (j <= 3 + end)) | ((j >= 27 + end + nodot) & (j <= 48 + tail + (tail > 0) * 3))
    masks[_REPR:] = j <= np.arange(25)[:, None]
    decpt, olength = (a.ravel() for a in np.meshgrid(np.arange(360) - _DECPT, range(18), indexing="ij"))
    sci = decpt <= -4
    first = _DIGITS - olength
    start = np.clip(np.where(sci, first, first + np.minimum(decpt - 1, 0)), 0, _DIGITS - 1)
    end = np.clip(np.where(sci, first, first + decpt - 1), 0, _DIGITS - 1)  # the digit before the dot
    shapes = np.stack([
        (((start + 1) * _DIGITS + end) * 2 + (sci & (olength == 1))) * 3 + sci * (1 + (decpt <= -99)),
        2 + start,  # the sign's byte
        27 + end,  # the dot's byte
        np.where(sci, 1 - decpt, 0),  # the tail
    ])
    return limbs, two_t, e10, low, groups, tails, masks, shapes


def csv_body(block):
    """The CSV lines of a (rows, cols) float64 block's rows, as bytes: every
    value takes the digit pipeline, then repr rewrites those off its fast path."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(_U)
    flat = bits.ravel()
    *_, low, _, _, masks, _ = _tables()
    E = (flat >> _U(52) & _U(0x7FF)).astype(np.intp)
    digits, olength, decpt, sure = _shortest(flat, E)
    fast = (flat & low.take(E) != 0) & sure
    words, key = _layout(bits, digits, olength, decpt)
    off = np.flatnonzero(~fast)
    if off.size:
        texts = list(map(repr, flat[off].view(np.float64).tolist()))
        last = (off % bits.shape[1] == bits.shape[1] - 1).tolist()
        slots = "".join([f"{s}{chr(10) if e else ','}".ljust(56) for s, e in zip(texts, last)])
        words[off] = np.frombuffer(slots.encode("ascii"), dtype=_U).reshape(-1, 7)
        key[off] = _REPR + np.array(list(map(len, texts)))
    return words.view(np.uint8).reshape(-1, 56)[masks.take(key, axis=0)].tobytes()


def _layout(bits, digits, olength, decpt):
    """The 56-byte slots and mask keys of a (rows, cols) block's values,
    from their digits, digit counts and decpt; the slot of a value off the
    fast path holds digits that mean nothing until repr's bytes replace it."""
    *_, groups, tails, _, shapes = _tables()
    neg = (bits.ravel() >> _U(63)).astype(np.intp)
    key, sign, dot, tail = shapes.take((decpt + _DECPT) * 18 + olength, axis=1)
    key -= neg * (2 * 3 * _DIGITS)  # the sign's byte starts the first run
    words = np.empty((digits.size, 7), dtype=_U)
    quads = words.view(np.uint32)
    # digits < 10^17: eight digits below 10^8 and nine above, split in uint32
    high = digits // _U(10**8)
    lo = (digits - high * _U(10**8)).astype(np.uint32)
    hi = high.astype(np.uint32)
    top = hi // 10**8
    hi -= top * 10**8
    mid, lo_mid = hi // 10_000, lo // 10_000
    top = top.astype(_U) << _U(56)  # byte 7 of words 0 and 3
    np.add(top, _U(int.from_bytes(b"\0\0\0" b"00000", "little")), out=words[:, 0])
    np.add(top, _U(int.from_bytes(b"\0\0\0\0" b"0000", "little")), out=words[:, 3])
    for j, g in enumerate((mid, hi - mid * 10_000, lo_mid, lo - lo_mid * 10_000), 2):
        groups.take(g, out=quads[:, j], mode="clip")
    words[:, 4:6] = words[:, 1:3]
    tail = tail.reshape(bits.shape)
    tail[:, -1] += 400
    tails.take(tail.ravel(), out=words[:, 6], mode="clip")
    chars = words.view(np.uint8).ravel()
    slot = np.arange(0, chars.size, 56)
    chars[slot + sign] = neg * ord("-")  # over a leading zero (or byte 2)
    chars[slot + dot] = ord(".")  # over the second copy's digit before the dot
    return words, key


def _shortest(bits, E):
    """(digits, their count, decpt, certified) of values' bits: a fast-path
    value is 0.<digits> times 10^decpt, with the fewest digits that read
    back; for any other value they mean nothing but index the layout tables."""
    e10 = _tables()[2]
    vr, vp, vm, sure = _bounds(bits, E)
    k = np.zeros(bits.size, dtype=np.intp)  # digits removed: the p >= 1 with vp // 10^p > vm // 10^p
    for p in range(1, 20):
        more = vp // _POW10[p] > vm // _POW10[p]
        if not more.any():
            break
        k += more
    scale = _POW10.take(k)
    digits = vr // scale
    digits += (digits == vm // scale) | (_U(2) * (vr - digits * scale) >= scale)
    olength = np.searchsorted(_POW10, digits, side="right")
    return digits, olength, e10.take(E) + k + olength, sure


def _bounds(bits, E):
    """(vr, vp, vm, certified): the floors of X = 4 m2 t and of X +- 2t,
    computed to within 2.125 units of 2^-64 below (module docstring), and
    whether no fraction is within _GUARD units of the next integer."""
    limbs, two_t, *_ = _tables()
    m2 = bits & _U((1 << 52) - 1) | _U(1 << 52)
    a, b = m2 >> _U(_LIMB), m2 & _MASK
    T0, T1, T2, T3, T4 = limbs.take(E, axis=1)
    c2 = (a * T0 + b * T1 >> _U(_LIMB)) + a * T1 + b * T2  # the column of b T0 is left out
    c3 = (c2 >> _U(_LIMB)) + a * T2 + b * T3
    c4 = (c3 >> _U(_LIMB)) + a * T3 + b * T4
    c5 = (c4 >> _U(_LIMB)) + a * T4
    c4 &= _MASK
    # X = c5 2^9 + c4 2^-17 + c3 2^-43 + c2 2^-69 (c2, c3 taken mod 2^26)
    vr = c5 << _U(9) | c4 >> _U(17)
    f = (c4 & _U((1 << 17) - 1)) << _U(47) | (c3 & _MASK) << _U(21) | (c2 & _MASK) >> _U(5)
    di, df, ndf = two_t.take(E, axis=1)
    fp, fm = f + df, f + ndf  # the fractions of X + 2t and of X - 2t - 2^-64
    vp = vr + di + (fp < f)
    vm = vr - di - (fm >= f)
    sure = np.maximum(np.maximum(f, fp), fm) <= _U(2**64 - 1 - _GUARD)
    return vr, vp, vm, sure
