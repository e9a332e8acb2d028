# Driver for one statsdump golden test: runs statsdump with ARGS on
# INPUT (from the fixture directory) and asserts the exit status
# matches WANT_EXIT, stdout matches EXPECTED byte-for-byte (empty
# when EXPECTED is unset) and, when WANT_STDERR is set, stderr
# contains it.
#
#   cmake -DSTATSDUMP=... -DFIXTURE_DIR=... -DINPUT=... [-DARGS=...]
#         [-DEXPECTED=...] [-DWANT_STDERR=...] -DWANT_EXIT=0|1
#         -P check_case.cmake

execute_process(
    COMMAND ${STATSDUMP} ${ARGS} ${INPUT}
    WORKING_DIRECTORY ${FIXTURE_DIR}
    OUTPUT_VARIABLE got
    ERROR_VARIABLE got_err
    RESULT_VARIABLE status)

if(EXPECTED)
    file(READ ${FIXTURE_DIR}/${EXPECTED} want)
else()
    set(want "")
endif()

if(NOT status EQUAL WANT_EXIT)
    message(FATAL_ERROR
        "statsdump ${ARGS} ${INPUT}: exit ${status}, expected "
        "${WANT_EXIT}\nstdout:\n${got}\nstderr:\n${got_err}")
endif()
if(NOT got STREQUAL want)
    message(FATAL_ERROR
        "statsdump ${ARGS} ${INPUT}: output mismatch\n"
        "--- expected ---\n${want}\n--- got ---\n${got}")
endif()
if(WANT_STDERR)
    string(FIND "${got_err}" "${WANT_STDERR}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "statsdump ${ARGS} ${INPUT}: stderr lacks "
            "'${WANT_STDERR}'\nstderr:\n${got_err}")
    endif()
endif()
