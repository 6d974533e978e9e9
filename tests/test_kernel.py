"""The compiled kernel's build and load: every entry point typed, a failed
build that names the compiler command, built once and then loaded, into
the user's cache where the package cannot be written, leaving one library
that every user who can read the source can load; and the tooling gates,
no sanitizer error and no compiler warning."""

import ctypes
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from boweltrack import cli, kernel
from boweltrack.volume_io import Volume, save_volume
from checkout import source_env


# Generates the straight test phantom into argv[1] and tracks it, then
# prints the path of the kernel it loaded.
TRACK_SCRIPT = """
import sys
from boweltrack import kernel, pipeline
from boweltrack.config import TrackingConfig
from boweltrack.phantom import PhantomSpec, generate_phantom
from boweltrack.volume_io import save_polyline, save_volume

out = sys.argv[1]
spec = PhantomSpec(dims=(64, 28, 28), spacing=(2.0, 2.0, 2.0), inner_radius=12.0, bends=0,
                   touch_pairs=0, seed=3)
intensity, seg, gt = generate_phantom(spec)
save_volume(intensity, out + "/intensity.vol")
save_volume(seg, out + "/segmentation.vol")
save_polyline(gt, out + "/gt.poly")
pipeline.run_track(TrackingConfig(
    intensity_path=out + "/intensity.vol", segmentation_path=out + "/segmentation.vol",
    gt_path=out + "/gt.poly", start=tuple(gt.points[0]), end=tuple(gt.points[-1]),
    output_dir=out + "/track"))
print(kernel.load()._name)
"""


# Builds the kernel from the source copy argv[1] with AddressSanitizer and
# UndefinedBehaviorSanitizer, which end the process at their first error,
# and runs the tests argv[2:] on it.
SANITIZED_TESTS = """
import sys
from pathlib import Path
import pytest
from boweltrack import kernel

kernel._SOURCE = Path(sys.argv[1])
kernel._COMPILE = [*kernel._COMPILE, "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all"]
assert b"__asan_report" in Path(kernel.load()._name).read_bytes()
sys.exit(pytest.main(["-q", "--capture=sys", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


class TestKernel:
    """The kernel library: typed, built once, loaded, and checked."""

    def test_every_entry_point_is_typed(self):
        """ctypes passes an untyped function's arguments as ints and reads an
        int back: every function the source exports has its result type and
        one argument type per parameter."""
        source = kernel._SOURCE.read_text()
        exported = re.findall(r"^(void|int64_t) (\w+)\(([^)]*)\)", source, flags=re.M)
        assert sorted(name for _, name, _ in exported) == sorted(kernel._SIGNATURES)
        assert {"slic_assign", "ridge_hessian"} <= set(kernel._SIGNATURES)
        lib = kernel.load()
        for result, name, params in exported:
            fn = getattr(lib, name)
            assert fn.restype is (None if result == "void" else ctypes.c_int64), name
            assert len(fn.argtypes) == params.count(",") + 1, name

    def test_missing_compiler_is_named(self, monkeypatch, source_copy):
        monkeypatch.setattr(kernel, "_COMPILE", ["/nonexistent/cc", "-O2"])
        with pytest.raises(OSError, match="cannot compile the C kernel: "
                                          "/nonexistent/cc -O2 .*No such file"):
            kernel.load()

    def test_compiler_error_output_is_named(self, monkeypatch, source_copy):
        monkeypatch.setattr(kernel, "_COMPILE", [*kernel._COMPILE, "-fno-such-option"])
        with pytest.raises(OSError, match=r"-fno-such-option -o .* exited with status "
                                          r"[1-9]\d*: .*no-such-option"):
            kernel.load()
        assert list((source_copy.parent / "__pycache__").iterdir()) == []

    def test_cli_reports_a_failed_build(self, monkeypatch, source_copy, tmp_path, capsys):
        wall, out = tmp_path / "wall.vol", tmp_path / "labels.vol"
        save_volume(Volume(np.random.default_rng(0).random((18, 15, 12), dtype=np.float32),
                           (2.0, 2.0, 2.5), (0.0, 0.0, 0.0)), wall)
        monkeypatch.setattr(kernel, "_COMPILE", ["/nonexistent/cc"])
        assert cli.main(["slic", str(wall), str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot compile the C kernel: /nonexistent/cc -o ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fresh_process_loads_without_compiling(self, source_copy):
        kernel.load()
        built = list((source_copy.parent / "__pycache__").iterdir())
        assert [p.suffix for p in built] == [".so"]
        stamp = built[0].stat().st_mtime_ns
        script = "\n".join([
            "import subprocess",
            "from pathlib import Path",
            "from boweltrack import kernel",
            "def no_compiler(*args, **kwargs):",
            "    raise AssertionError('the compiler ran')",
            "subprocess.run = no_compiler",
            f"kernel._SOURCE = Path({str(source_copy)!r})",
            "kernel.load()",
        ])
        subprocess.run([sys.executable, "-c", script], env=source_env(), check=True)
        assert list((source_copy.parent / "__pycache__").iterdir()) == built
        assert built[0].stat().st_mtime_ns == stamp

    def test_edited_source_leaves_one_library(self, source_copy):
        kernel.load()
        source_copy.write_text(source_copy.read_text() + "/* edited */\n")
        kernel.load.cache_clear()
        lib = Path(kernel.load()._name)
        assert list((source_copy.parent / "__pycache__").iterdir()) == [lib]

    def test_builds_without_a_home_directory(self, monkeypatch, source_copy):
        """No $XDG_CACHE_HOME, and no home directory to put a user cache in:
        the package's __pycache__ serves."""
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", no_home)
        assert Path(kernel.load()._name).parent == source_copy.parent / "__pycache__"

    def test_read_only_package_builds_in_user_cache(self, tmp_path):
        """A package directory that cannot be written, as in a system-wide
        install or a read-only layer: the kernel is built into
        $XDG_CACHE_HOME/boweltrack, and a small volume is tracked."""
        package = tmp_path / "site" / "boweltrack"
        shutil.copytree(Path(kernel.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "-c", TRACK_SCRIPT, str(tmp_path)]
        if os.geteuid() == 0:
            # Root writes any directory while it holds CAP_DAC_OVERRIDE.
            if shutil.which("setpriv") is None:
                pytest.skip("running as root, and setpriv, which drops CAP_DAC_OVERRIDE, "
                            "is not installed")
            drop = ["setpriv", "--inh-caps=-dac_override", "--bounding-set=-dac_override"]
            probe = subprocess.run([*drop, "true"], capture_output=True, text=True)
            if probe.returncode:
                pytest.skip(f"running as root, and setpriv cannot drop CAP_DAC_OVERRIDE: "
                            f"{probe.stderr.strip()}")
            cmd = [*drop, *cmd]
        env = dict(os.environ, PYTHONPATH=str(package.parent),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        package.chmod(0o555)
        try:
            done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        finally:
            package.chmod(0o755)
        assert done.returncode == 0, done.stderr
        lib = Path(done.stdout.split()[-1])
        assert list((tmp_path / "cache" / "boweltrack").iterdir()) == [lib]
        assert not (package / "__pycache__").exists()
        assert (tmp_path / "track" / "route.poly").exists()

    def test_library_is_readable_wherever_the_source_is(self, source_copy):
        """The library gets the source's mode, plus owner write and an
        execute bit wherever read is granted, as a .pyc gets its source's:
        mkstemp's file is its owner's alone, and a second user who found it
        in the package's __pycache__ could not load it."""
        source_copy.chmod(0o644)
        lib = Path(kernel.load()._name)
        assert lib.stat().st_mode & 0o777 == 0o755
        if os.geteuid() != 0:
            pytest.skip("loading the library as another user needs root, to become nobody")
        nobody = ["setpriv", "--reuid=65534", "--regid=65534", "--clear-groups",
                  sys.executable, "-c"]
        if shutil.which("setpriv") is None:
            pytest.skip("running as root, and setpriv, which runs a process as nobody, "
                        "is not installed")
        probe = subprocess.run([*nobody, "pass"], capture_output=True, text=True)
        if probe.returncode:
            pytest.skip(f"running as root, and Python cannot run as nobody: "
                        f"{probe.stderr.strip()}")
        # Loaded through a descriptor opened here, so that the library's own
        # mode is checked and not those of the test's private directories.
        fd = os.open(lib, os.O_RDONLY)
        try:
            done = subprocess.run([*nobody, f"import ctypes; ctypes.CDLL('/proc/self/fd/{fd}')"],
                                  pass_fds=[fd], capture_output=True, text=True)
        finally:
            os.close(fd)
        assert done.returncode == 0, done.stderr

    def test_sanitizers_find_no_error(self, tmp_path):
        """A tooling gate: built with AddressSanitizer and
        UndefinedBehaviorSanitizer, every entry point gives the bits of its
        numpy code at every call of slic on four equivalence cases, the
        thick-slice one with its uncovered voxels and the two-row one among
        them, and the connectivity step those of its oracles on the random
        labelings; the wall filter's Hessian gives scipy's bytes where each
        axis-0 row reads the 5-row axis reflected more than once, and on
        anisotropic voxels with sub-slabs of 1 and 3 rows.  gcc's libasan
        is loaded first, as it must be, into a Python that was not built
        with it."""
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        version = subprocess.run([*cc, "--version"], capture_output=True, text=True).stdout
        if "Free Software Foundation" not in version:
            pytest.skip(f"the compiler {cc[0]} is not gcc")
        asan = subprocess.run([*cc, "-print-file-name=libasan.so"], capture_output=True,
                              text=True).stdout.strip()
        if not os.path.isabs(asan):
            pytest.skip(f"{cc[0]} has no libasan.so")
        copy = tmp_path / kernel._SOURCE.name
        copy.write_bytes(kernel._SOURCE.read_bytes())
        slic_tests = Path(__file__).with_name("test_supervoxel.py")
        tests = [f"{slic_tests}::TestOracleEquivalence::test_every_part_matches_numpy"
                 f"[{case}-{dtype}]" for case in ("thick-slice", "thin", "random-0", "signed-zero")
                 for dtype in ("float32", "float64")]
        tests.append(f"{slic_tests}::TestConnectivityOracle::test_random_labelings")
        ridge_tests = Path(__file__).with_name("test_ridge.py")
        tests += [f"{ridge_tests}::TestSlabs::test_hessian_axis0_shorter_than_radius",
                  f"{ridge_tests}::TestSlabs::test_hessian_anisotropic_spacing"]
        env = dict(source_env(), LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0")
        done = subprocess.run([sys.executable, "-c", SANITIZED_TESTS, str(copy), *tests],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stdout[-4000:] + done.stderr[:4000]
        assert "49 passed" in done.stdout

    def test_source_compiles_without_warnings(self, tmp_path):
        """A tooling gate: the source is strict C99 that draws no warning.
        The flags the kernel is built with stay the fixed ones."""
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        assert kernel._COMPILE == [*cc, "-O3", "-fno-math-errno", "-ffp-contract=off",
                                   "-shared", "-fPIC"]
        done = subprocess.run([*cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O3",
                               "-fno-math-errno", "-ffp-contract=off", "-c",
                               "-o", str(tmp_path / "kernel.o"), str(kernel._SOURCE)],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
