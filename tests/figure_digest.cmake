# Golden figure digest check, run by ctest (label `figures`):
#
#   cmake -DBIN=<figure binary> -DDIGEST=<sha256> -DOUT=<csv path> \
#         -P tests/figure_digest.cmake
#
# Runs BIN at the fixed small configuration below and compares the
# sha256 of its stdout against DIGEST. The figures are deterministic
# for a given seed, so any change in the digest is a behaviour change
# in the simulator, not noise. The TALUS_* environment knobs are
# cleared first so a developer's shell cannot change what is measured.
#
# To refresh after an intentional behaviour change, rerun the binary
# with the same flags and record `sha256sum` of its output in
# tests/CMakeLists.txt.

foreach(var BIN DIGEST OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figure_digest.cmake: -D${var}=... is required")
  endif()
endforeach()

foreach(knob FULL SCALE INSTR MIXES ACCESSES SEED SHARDS THREADS RECONFIG
             PIPELINE MONITOR_SAMPLE TRACE METRICS)
  unset(ENV{TALUS_${knob}})
endforeach()

execute_process(
  COMMAND ${BIN} --csv --scale=256 --accesses=20000 --mixes=4
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

file(SHA256 ${OUT} got)
if(NOT got STREQUAL DIGEST)
  message(FATAL_ERROR
    "${BIN}: output digest ${got} differs from the golden ${DIGEST}; "
    "the output is in ${OUT}")
endif()
message(STATUS "${BIN}: digest ${got} matches")
